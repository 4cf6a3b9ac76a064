package fl

import (
	"net"
	"sync"
	"testing"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

func TestTensorWireRoundTrip(t *testing.T) {
	ts := []*tensor.Tensor{
		tensor.FromSlice([]float64{1, 2, 3, 4}, 2, 2),
		tensor.FromSlice([]float64{5}, 1),
	}
	back := TensorsFromWire(WireFromTensors(ts))
	for i := range ts {
		if !ts[i].Equal(back[i], 0) {
			t.Fatalf("tensor %d does not round-trip", i)
		}
	}
	// Wire form must be a copy.
	w := WireFromTensors(ts)
	w[0].Data[0] = 99
	if ts[0].At(0, 0) == 99 {
		t.Fatal("WireFromTensors must copy data")
	}
}

func TestRPCRoundOverLoopback(t *testing.T) {
	spec, err := dataset.Get("cancer")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}

	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const kt = 3
	var wg sync.WaitGroup
	clientErrs := make([]error, kt)
	for i := 0; i < kt; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = runClient(srv.Addr(), id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 42, ClientOptions{})
		}(i)
	}

	deltas, err := runRound(srv, 0, model.Params(), cfg, kt)
	wg.Wait()
	if err != nil {
		t.Fatalf("RunRound: %v", err)
	}
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d: %v", i, cerr)
		}
	}
	if len(deltas) != kt {
		t.Fatalf("collected %d updates, want %d", len(deltas), kt)
	}
	for i, d := range deltas {
		if len(d) != len(model.Params()) {
			t.Fatalf("update %d has %d tensors, want %d", i, len(d), len(model.Params()))
		}
		if tensor.GroupL2Norm(d) == 0 {
			t.Fatalf("update %d is zero — no training happened", i)
		}
	}
	// Aggregation over RPC-collected updates works like the simulator's.
	before := tensor.CloneAll(model.Params())
	AggregateFedSGD(model.Params(), deltas)
	moved := false
	for i, p := range model.Params() {
		if !p.Equal(before[i], 0) {
			moved = true
		}
	}
	if !moved {
		t.Fatal("aggregated model did not move")
	}
}

// TestCloseWaitsForFinalReceipts: a server that closes right after its
// last commit, as fedserve does before it exits, must first let every
// session it folded write its receipt. The seam holds each receipt back
// past the commit; once Close returns, the test drops every server-side
// connection as a process exit would, and every client must still have
// been told its update was folded.
func TestCloseWaitsForFinalReceipts(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1, TotalRounds: 1}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conns := &connLog{Listener: ln}
	srv := NewRoundServerOn(conns)
	srv.beforeAck = func() { time.Sleep(100 * time.Millisecond) }

	const kt = 3
	var wg sync.WaitGroup
	clientErrs := make([]error, kt)
	for i := 0; i < kt; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			clientErrs[id] = runClient(srv.Addr(), id, sgdStrategy{}, ds.Client(id), spec.ModelSpec(), 42, ClientOptions{})
		}(i)
	}
	res, err := srv.StreamRound(0, model.Params(), cfg, newCollect(), RoundOptions{Clients: kt})
	if err != nil || res.Folded != kt {
		t.Fatalf("round: %+v, %v", res, err)
	}
	srv.Close()
	conns.closeAll()
	wg.Wait()
	for i, cerr := range clientErrs {
		if cerr != nil {
			t.Fatalf("client %d, folded into the last round: %v", i, cerr)
		}
	}
}

// connLog is a listener that remembers the connections it accepted, so a
// test can drop them all at once.
type connLog struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *connLog) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

func TestRPCRemoteMatchesLocal(t *testing.T) {
	// The same client seed and strategy must produce identical updates
	// locally and over the wire.
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 42)
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(7))
	cfg := RoundConfig{BatchSize: 4, LocalIters: 2, LR: 0.1, TotalRounds: 1}

	// Local.
	local := nn.Build(spec.ModelSpec(), tensor.NewRNG(0))
	local.SetParams(model.Params())
	env := &ClientEnv{
		ClientID: 0, Round: 0, Model: local, Data: ds.Client(0),
		RNG: tensor.Split(42, 4, 0, 0), Cfg: cfg,
	}
	wantDelta, _ := sgdStrategy{}.ClientUpdate(env)

	// Remote.
	srv, err := NewRoundServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		done <- runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 42, ClientOptions{})
	}()
	deltas, err := runRound(srv, 0, model.Params(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-done; cerr != nil {
		t.Fatal(cerr)
	}
	for i := range wantDelta {
		if !wantDelta[i].Equal(deltas[0][i], 1e-12) {
			t.Fatalf("remote update tensor %d differs from local", i)
		}
	}
}

func TestRoundServerBadAddr(t *testing.T) {
	if _, err := NewRoundServer("256.256.256.256:99999"); err == nil {
		t.Fatal("expected error for invalid address")
	}
}

func TestRemoteClientBadAddr(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 1)
	err := runClient("127.0.0.1:1", 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 1, ClientOptions{})
	if err == nil {
		t.Fatal("expected error dialing closed port")
	}
}
