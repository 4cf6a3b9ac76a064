package simnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedcdp/internal/tensor"
)

func TestParsePlanGrammar(t *testing.T) {
	p, err := ParsePlan("drop=0.2, crash=2, restart=1, latency=5ms, jitter=2ms, dup=0.05, msgdrop=0.01, partition=c1>server@1-2, crash@3:7, restart@2")
	if err != nil {
		t.Fatal(err)
	}
	if p.DropRate != 0.2 || p.CrashCount != 2 || p.RestartCount != 1 {
		t.Fatalf("parsed rates wrong: %+v", p)
	}
	if p.Latency != 5*time.Millisecond || p.Jitter != 2*time.Millisecond {
		t.Fatalf("parsed latency wrong: %v/%v", p.Latency, p.Jitter)
	}
	if p.DupRate != 0.05 || p.MsgDropRate != 0.01 {
		t.Fatalf("parsed message rates wrong: %+v", p)
	}
	if !p.Partitioned(1, "c1", "server") || !p.Partitioned(2, "c1", "server") {
		t.Fatal("partition window not honored")
	}
	if p.Partitioned(0, "c1", "server") || p.Partitioned(3, "c1", "server") || p.Partitioned(1, "server", "c1") {
		t.Fatal("partition leaked outside its window or direction")
	}
	b := p.MustBind(1, 5, 10)
	if !b.CrashClient(3, 7) {
		t.Fatal("explicit crash event lost")
	}
	if !b.RestartServer(2) {
		t.Fatal("explicit restart event lost")
	}

	if _, err := ParsePlan(""); err != nil {
		t.Fatalf("empty plan must parse: %v", err)
	}
	for _, bad := range []string{
		"drop=1.5", "drop=x", "bogus=1", "crash@5", "crash@a:b", "restart@-1",
		"partition=a@1-2", "partition=a>b@2-1", "latency=-5ms", "crash=-1", "drop",
		// Hostile adversarial specs: malformed counts, modes, parameters.
		"byzantine=2", "byzantine=x:signflip", "byzantine=-1:signflip",
		"byzantine=2:bogus", "byzantine=2:signflip:3", "byzantine=2:scale:x",
		"byzantine=2:gauss:-1", "byzantine=2:scale:10:extra", "byzantine=2:scale:NaN",
		"poison=2", "poison=x:0.5", "poison=-1:0.5", "poison=2:1.5", "poison=2:x",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("plan %q must not parse", bad)
		}
	}
}

func TestParsePlanAdversarialGrammar(t *testing.T) {
	p := MustParsePlan("byzantine=2:scale:25, poison=3:0.8")
	if p.ByzantineCount != 2 || p.ByzantineMode != ByzScale || p.ByzantineParam != 25 {
		t.Fatalf("byzantine clause parsed wrong: %+v", p)
	}
	if p.PoisonCount != 3 || p.PoisonRate != 0.8 {
		t.Fatalf("poison clause parsed wrong: %+v", p)
	}
	// Mode parameter defaults.
	if p := MustParsePlan("byzantine=1:scale"); p.ByzantineParam != 10 {
		t.Fatalf("scale default λ = %v, want 10", p.ByzantineParam)
	}
	if p := MustParsePlan("byzantine=1:gauss"); p.ByzantineParam != 1 {
		t.Fatalf("gauss default σ = %v, want 1", p.ByzantineParam)
	}
}

func TestPlanBindDeterministic(t *testing.T) {
	p := MustParsePlan("crash=3,restart=2,drop=0.3")
	a := p.MustBind(42, 10, 20)
	b := p.MustBind(42, 10, 20)
	if a.Events() != b.Events() {
		t.Fatalf("same seed bound different events: %s vs %s", a.Events(), b.Events())
	}
	if a.Events() == p.MustBind(43, 10, 20).Events() {
		t.Fatal("different seeds bound identical events (vanishingly unlikely)")
	}
	// Exactly the budgeted number of distinct events.
	crashes, restarts := 0, 0
	for r := 0; r < 10; r++ {
		if a.RestartServer(r) {
			restarts++
		}
		for c := 0; c < 20; c++ {
			if a.CrashClient(r, c) {
				crashes++
			}
		}
	}
	if crashes != 3 || restarts != 2 {
		t.Fatalf("bound %d crashes / %d restarts, want 3/2", crashes, restarts)
	}
	if a.RestartServer(0) {
		t.Fatal("seeded restart landed before round 1")
	}
	// Drop coins are pure functions of (seed, round, client).
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			if a.DropUpdate(r, c) != b.DropUpdate(r, c) {
				t.Fatalf("drop coin (%d,%d) differs across identical binds", r, c)
			}
		}
	}
	// Rough rate check over a large population.
	wide := p.MustBind(7, 100, 100)
	drops := 0
	for r := 0; r < 100; r++ {
		for c := 0; c < 100; c++ {
			if wide.DropUpdate(r, c) {
				drops++
			}
		}
	}
	if rate := float64(drops) / 10000; rate < 0.25 || rate > 0.35 {
		t.Fatalf("drop rate %v far from 0.3", rate)
	}
}

func TestPlanBindOverfullBudgets(t *testing.T) {
	// Seeded budgets that exceed the slots explicit events left free must
	// fail loudly at Bind — a silently truncated attack or fault load would
	// make an experiment report claim a plan it never ran.
	for _, tc := range []struct {
		plan            string
		rounds, clients int
	}{
		{"restart@1,restart=2", 3, 4},          // only rounds 1 and 2 can host restarts
		{"crash@0:0,crash@0:1,crash=10", 1, 2}, // 2 slots, 10 seeded crashes
		{"byzantine=5:signflip", 3, 4},         // 5 attackers in a 4-client population
		{"poison=7:0.5", 3, 4},                 // 7 poisoned of 4
	} {
		p := MustParsePlan(tc.plan)
		if _, err := p.Bind(1, tc.rounds, tc.clients); err == nil {
			t.Errorf("plan %q bound over (%d rounds, %d clients) must error",
				tc.plan, tc.rounds, tc.clients)
		}
	}
	// Exactly-full budgets still bind.
	if _, err := MustParsePlan("byzantine=4:signflip,poison=4:0.5").Bind(1, 3, 4); err != nil {
		t.Fatalf("exactly-full adversary budgets must bind: %v", err)
	}
}

func TestPlanAdversaryDeterministic(t *testing.T) {
	p := MustParsePlan("byzantine=2:gauss:0.5,poison=3:0.8")
	a := p.MustBind(42, 5, 10)
	b := p.MustBind(42, 5, 10)
	byz, poisoned := 0, 0
	for c := 0; c < 10; c++ {
		if a.ByzantineClient(c) != b.ByzantineClient(c) || a.PoisonedClient(c) != b.PoisonedClient(c) {
			t.Fatalf("client %d identity differs across identical binds", c)
		}
		if a.ByzantineClient(c) {
			byz++
		}
		if a.PoisonedClient(c) {
			poisoned++
		}
	}
	if byz != 2 || poisoned != 3 {
		t.Fatalf("bound %d byzantine / %d poisoned, want 2/3", byz, poisoned)
	}
	if a.Events() != b.Events() || a.Events() == p.MustBind(43, 5, 10).Events() {
		t.Fatalf("adversary events not seed-determined: %s", a.Events())
	}

	// Gauss corruption draws are pure functions of (seed, round, client):
	// the same update corrupted under two identical binds stays identical.
	mk := func() []*tensor.Tensor { return []*tensor.Tensor{tensor.FromSlice([]float64{1, 2, 3, 4}, 4)} }
	for c := 0; c < 10; c++ {
		ua, ub := mk(), mk()
		if a.CorruptUpdate(2, c, ua) != b.CorruptUpdate(2, c, ub) {
			t.Fatalf("client %d corruption verdict differs", c)
		}
		for i := range ua[0].Data() {
			if ua[0].Data()[i] != ub[0].Data()[i] {
				t.Fatalf("client %d gauss corruption not deterministic", c)
			}
		}
	}

	// Poison coins are pure functions of (seed, client, example index) and
	// flip to the fixed targeted class y→(y+1) mod classes.
	for c := 0; c < 10; c++ {
		for i := 0; i < 20; i++ {
			la, lb := a.PoisonLabel(c, i, 1, 3), b.PoisonLabel(c, i, 1, 3)
			if la != lb {
				t.Fatalf("poison coin (%d,%d) differs across identical binds", c, i)
			}
			if la != 1 && la != 2 {
				t.Fatalf("poison flip of label 1 gave %d, want 1 or 2", la)
			}
		}
	}
}

func TestPlanCorruptUpdateModes(t *testing.T) {
	mk := func() []*tensor.Tensor { return []*tensor.Tensor{tensor.FromSlice([]float64{1, -2, 3}, 3)} }
	attacker := func(p *Plan) int {
		t.Helper()
		for c := 0; c < 4; c++ {
			if p.ByzantineClient(c) {
				return c
			}
		}
		t.Fatal("no attacker bound")
		return -1
	}

	sf := MustParsePlan("byzantine=1:signflip").MustBind(7, 2, 4)
	u := mk()
	if !sf.CorruptUpdate(0, attacker(sf), u) {
		t.Fatal("signflip attacker did not corrupt")
	}
	for i, want := range []float64{-1, 2, -3} {
		if u[0].Data()[i] != want {
			t.Fatalf("signflip element %d = %v, want %v", i, u[0].Data()[i], want)
		}
	}

	sc := MustParsePlan("byzantine=1:scale:10").MustBind(7, 2, 4)
	u = mk()
	if !sc.CorruptUpdate(0, attacker(sc), u) {
		t.Fatal("scale attacker did not corrupt")
	}
	for i, want := range []float64{10, -20, 30} {
		if u[0].Data()[i] != want {
			t.Fatalf("scale element %d = %v, want %v", i, u[0].Data()[i], want)
		}
	}

	// Honest clients are never corrupted under any mode.
	for c := 0; c < 4; c++ {
		if c == attacker(sf) {
			continue
		}
		u = mk()
		if sf.CorruptUpdate(0, c, u) {
			t.Fatalf("honest client %d corrupted", c)
		}
		for i, want := range []float64{1, -2, 3} {
			if u[0].Data()[i] != want {
				t.Fatalf("honest update element %d mutated to %v", i, u[0].Data()[i])
			}
		}
	}
}

func TestPlanUnboundSeededFaultsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("consulting an unbound seeded plan must panic")
		}
	}()
	MustParsePlan("crash=2").CrashClient(0, 0)
}

func TestNilPlanIsNull(t *testing.T) {
	var p *Plan
	if p.CrashClient(0, 0) || p.DropUpdate(0, 0) || p.RestartServer(1) || p.Partitioned(0, "a", "b") {
		t.Fatal("nil plan injected a fault")
	}
	if p.ByzantineClient(0) || p.PoisonedClient(0) || p.CorruptUpdate(0, 0, nil) {
		t.Fatal("nil plan injected an adversary")
	}
	if p.PoisonLabel(0, 0, 1, 3) != 1 {
		t.Fatal("nil plan flipped a label")
	}
}

// dialPair opens a connected (client, server) conn pair through the fabric.
func dialPair(t *testing.T, n *Net, host, addr string, ln net.Listener) (net.Conn, net.Conn) {
	t.Helper()
	cc, err := n.Dialer(host)(addr)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return cc, sc
}

func TestFabricByteRoundTrip(t *testing.T) {
	n := New(1, nil)
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	cc, sc := dialPair(t, n, "c0", "server", ln)

	msg := []byte("hello fabric")
	go func() {
		cc.Write(msg)
		cc.Close()
	}()
	got, err := io.ReadAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
	if _, err := io.ReadAll(sc); err != nil {
		t.Fatalf("read after EOF: %v", err)
	}
	if cc.LocalAddr().String() != "c0" || cc.RemoteAddr().String() != "server" {
		t.Fatalf("client addrs %v→%v", cc.LocalAddr(), cc.RemoteAddr())
	}
}

func TestFabricGobSession(t *testing.T) {
	type ping struct{ X, Y float64 }
	n := New(1, nil)
	ln, _ := n.Listen("server")
	cc, sc := dialPair(t, n, "c0", "server", ln)
	defer cc.Close()
	defer sc.Close()

	done := make(chan error, 1)
	go func() {
		var p ping
		if err := gob.NewDecoder(sc).Decode(&p); err != nil {
			done <- err
			return
		}
		p.X, p.Y = p.Y, p.X
		done <- gob.NewEncoder(sc).Encode(p)
	}()
	if err := gob.NewEncoder(cc).Encode(ping{X: 1, Y: 2}); err != nil {
		t.Fatal(err)
	}
	var back ping
	if err := gob.NewDecoder(cc).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if back.X != 2 || back.Y != 1 {
		t.Fatalf("echoed %+v", back)
	}
}

func TestFabricRefusedAndRebind(t *testing.T) {
	n := New(1, nil)
	if _, err := n.Dialer("c0")("server"); err == nil {
		t.Fatal("dial with no listener must be refused")
	}
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("server"); err == nil {
		t.Fatal("double bind must fail")
	}
	ln.Close()
	if _, err := ln.Accept(); err == nil {
		t.Fatal("accept on closed listener must fail")
	}
	if _, err := n.Dialer("c0")("server"); err == nil {
		t.Fatal("dial after listener close must be refused")
	}
	// A restarted server reclaims the address.
	if _, err := n.Listen("server"); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestFabricPartitionBlocksDial(t *testing.T) {
	plan := MustParsePlan("partition=c1>server@1-2")
	n := New(1, plan)
	ln, _ := n.Listen("server")
	defer ln.Close()

	if _, err := n.Dialer("c1")("server"); err != nil {
		t.Fatalf("round 0 dial should pass: %v", err)
	}
	n.SetRound(1)
	if _, err := n.Dialer("c1")("server"); err == nil {
		t.Fatal("partitioned dial must fail")
	}
	if _, err := n.Dialer("c2")("server"); err != nil {
		t.Fatalf("unpartitioned host blocked: %v", err)
	}
	n.SetRound(3)
	if _, err := n.Dialer("c1")("server"); err != nil {
		t.Fatalf("partition must lift after its window: %v", err)
	}
}

func TestFabricLatencyAdvancesVirtualClock(t *testing.T) {
	plan := MustParsePlan("latency=250ms")
	n := New(1, plan)
	ln, _ := n.Listen("server")
	cc, sc := dialPair(t, n, "c0", "server", ln)
	defer cc.Close()
	defer sc.Close()

	start := n.Clock().Now()
	wall := time.Now()
	if _, err := cc.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := sc.Read(buf); err != nil {
		t.Fatal(err)
	}
	if got := n.Clock().Now().Sub(start); got < 250*time.Millisecond {
		t.Fatalf("virtual clock advanced %v, want ≥ 250ms", got)
	}
	if spent := time.Since(wall); spent > 100*time.Millisecond {
		t.Fatalf("virtual latency cost %v of real time — the fabric must not sleep", spent)
	}
}

func TestFabricMessageCutBreaksLink(t *testing.T) {
	plan := MustParsePlan("msgdrop=1") // every message is the last
	n := New(1, plan)
	ln, _ := n.Listen("server")
	cc, sc := dialPair(t, n, "c0", "server", ln)
	defer cc.Close()
	defer sc.Close()

	if _, err := cc.Write([]byte("doomed")); err != nil {
		t.Fatalf("the cutting write itself reports success (TCP buffers): %v", err)
	}
	if _, err := cc.Write([]byte("after")); err == nil {
		t.Fatal("write after cut must fail")
	}
	if _, err := sc.Read(make([]byte, 8)); err == nil {
		t.Fatal("peer read across a cut must fail")
	}
}

func TestFabricDuplicateDelivery(t *testing.T) {
	plan := MustParsePlan("dup=1")
	n := New(1, plan)
	ln, _ := n.Listen("server")
	cc, sc := dialPair(t, n, "c0", "server", ln)
	defer sc.Close()

	if _, err := cc.Write([]byte("ab")); err != nil {
		t.Fatal(err)
	}
	cc.Close()
	got, err := io.ReadAll(sc)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abab" {
		t.Fatalf("read %q, want duplicated %q", got, "abab")
	}
}

// testFrame appends message m of link c to b: a 12-byte header (link,
// index, payload length) and a payload whose bytes and length both depend
// on (c, m), so a byte from any other message cannot pass for it.
func testFrame(b []byte, c, m int) []byte {
	n := 1 + (c*31+m*577)%3000
	b = binary.LittleEndian.AppendUint32(b, uint32(c))
	b = binary.LittleEndian.AppendUint32(b, uint32(m))
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	for i := 0; i < n; i++ {
		b = append(b, byte(c*7+m*13+i))
	}
	return b
}

// chunkReader reads at most n bytes per call, so reads straddle messages.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	return c.r.Read(p[:min(len(p), c.n)])
}

// TestFabricPooledFramesSurviveFaults runs many links at once through
// duplication, cuts and early hang-ups, with message sizes that vary so
// pooled frame buffers change hands between them: every message a reader
// gets back is the one written, whole, in order — a duplicate right behind
// its original — and the stream ends in EOF only once every message has
// arrived. The writer overwrites its buffer after each Write, so the fabric
// must carry a copy.
func TestFabricPooledFramesSurviveFaults(t *testing.T) {
	n := New(7, MustParsePlan("dup=0.3, msgdrop=0.03"))
	ln, err := n.Listen("server")
	if err != nil {
		t.Fatal(err)
	}
	const links, msgs = 24, 40
	var wg sync.WaitGroup
	var cuts, dups atomic.Int64
	for c := 0; c < links; c++ {
		c := c
		cc, sc := dialPair(t, n, fmt.Sprintf("c%d", c), "server", ln)
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer cc.Close()
			var b []byte
			for m := 0; m < msgs; m++ {
				b = testFrame(b[:0], c, m)
				if _, err := cc.Write(b); err != nil {
					return // the link was cut
				}
				for i := range b {
					b[i] = 0xEE
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer sc.Close()
			r := chunkReader{r: sc, n: 1 + c%13}
			stop := msgs
			if c%4 == 3 {
				stop = msgs / 2 // hang up with the rest still queued
			}
			last, repeated := -1, false
			var want []byte
			for read := 0; read < stop; read++ {
				var h [12]byte
				if _, err := io.ReadFull(r, h[:]); err != nil {
					switch {
					case errors.Is(err, errLinkCut):
						cuts.Add(1)
					case err != io.EOF:
						t.Errorf("link %d: header read: %v", c, err)
					case last != msgs-1:
						t.Errorf("link %d: EOF after message %d of %d", c, last, msgs)
					}
					return
				}
				gc, m := int(binary.LittleEndian.Uint32(h[:4])), int(binary.LittleEndian.Uint32(h[4:8]))
				switch {
				case gc == c && m == last && !repeated:
					repeated = true
					dups.Add(1)
				case gc == c && m == last+1:
					last, repeated = m, false
				default:
					t.Errorf("link %d: got message %d of link %d after message %d", c, m, gc, last)
					return
				}
				want = testFrame(want[:0], c, m)
				got := make([]byte, len(want))
				copy(got, h[:])
				if _, err := io.ReadFull(r, got[len(h):]); err != nil {
					t.Errorf("link %d: message %d cut short: %v", c, m, err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("link %d: message %d corrupted", c, m)
					return
				}
			}
		}()
	}
	wg.Wait()
	if cuts.Load() == 0 || dups.Load() == 0 {
		t.Fatalf("plan exercised %d cuts and %d duplicates; want both", cuts.Load(), dups.Load())
	}
}

func TestFabricFateDeterminism(t *testing.T) {
	// The same traffic pattern against the same seed meets the same fates,
	// run to run: collect the per-message survival mask twice and compare.
	run := func() []bool {
		plan := MustParsePlan("msgdrop=0.3")
		n := New(99, plan)
		var mask []bool
		for conn := 0; conn < 5; conn++ {
			ln, _ := n.Listen("server")
			cc, sc := dialPair(t, n, "c0", "server", ln)
			for msg := 0; msg < 6; msg++ {
				_, werr := cc.Write([]byte{byte(msg)})
				mask = append(mask, werr == nil)
			}
			cc.Close()
			sc.Close()
			ln.Close()
		}
		return mask
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("message %d fate differs across identical runs", i)
		}
	}
	cut := 0
	for _, ok := range a {
		if !ok {
			cut++
		}
	}
	if cut == 0 {
		t.Fatal("msgdrop=0.3 over 30 messages cut nothing")
	}
}

func TestClockTimers(t *testing.T) {
	c := newClock()
	fired := c.After(100 * time.Millisecond)
	later := c.After(time.Hour)
	select {
	case <-fired:
		t.Fatal("timer fired before any advance")
	default:
	}
	c.Advance(100 * time.Millisecond)
	select {
	case <-fired:
	default:
		t.Fatal("due timer did not fire on advance")
	}
	select {
	case <-later:
		t.Fatal("undue timer fired")
	default:
	}
	if got := c.Now().Sub(simEpoch); got != 100*time.Millisecond {
		t.Fatalf("virtual now = %v", got)
	}
	// AdvanceTo is monotone.
	c.AdvanceTo(simEpoch)
	if got := c.Now().Sub(simEpoch); got != 100*time.Millisecond {
		t.Fatalf("AdvanceTo moved time backwards to %v", got)
	}
	immediate := c.After(0)
	select {
	case <-immediate:
	default:
		t.Fatal("non-positive After must fire immediately")
	}
}
