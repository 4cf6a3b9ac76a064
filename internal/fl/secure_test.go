package fl

import (
	"bytes"
	"net"
	"sync"
	"testing"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// pipePair returns two connected TCP endpoints on loopback.
func pipePair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var server net.Conn
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	return client, server
}

func securePair(t *testing.T) (*SecureConn, *SecureConn) {
	t.Helper()
	c, s := pipePair(t)
	var sc, ss *SecureConn
	var errC, errS error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sc, errC = Handshake(c) }()
	go func() { defer wg.Done(); ss, errS = Handshake(s) }()
	wg.Wait()
	if errC != nil || errS != nil {
		t.Fatalf("handshake: %v / %v", errC, errS)
	}
	return sc, ss
}

func TestSecureConnRoundTrip(t *testing.T) {
	a, b := securePair(t)
	defer a.Close()
	defer b.Close()
	msg := []byte("per-example client differential privacy")
	if _, err := a.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := readFull(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %q, want %q", got, msg)
	}
}

func readFull(r *SecureConn, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func TestSecureConnMultipleFrames(t *testing.T) {
	a, b := securePair(t)
	defer a.Close()
	defer b.Close()
	for i := 0; i < 20; i++ {
		msg := bytes.Repeat([]byte{byte(i)}, 100+i)
		if _, err := a.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := readFull(b, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame %d corrupted", i)
		}
	}
}

func TestSecureConnCiphertextOnWire(t *testing.T) {
	// The plaintext must not appear on the wire: intercept via a recording
	// conn.
	c, s := pipePair(t)
	rec := &recordingConn{Conn: c}
	var sc, ss *SecureConn
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); sc, _ = Handshake(rec) }()
	go func() { defer wg.Done(); ss, _ = Handshake(s) }()
	wg.Wait()
	if sc == nil || ss == nil {
		t.Fatal("handshake failed")
	}
	secret := []byte("this-gradient-is-private-data-12345678")
	if _, err := sc.Write(secret); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(secret))
	if _, err := readFull(ss, got); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(rec.sent.Bytes(), secret) {
		t.Fatal("plaintext leaked onto the wire")
	}
}

type recordingConn struct {
	net.Conn
	sent bytes.Buffer
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.sent.Write(p)
	return r.Conn.Write(p)
}

func TestSecureRPCRound(t *testing.T) {
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
	srv.Secure = true
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		done <- runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 42, ClientOptions{Secure: true})
	}()
	deltas, err := runRound(srv, 0, model.Params(), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cerr := <-done; cerr != nil {
		t.Fatal(cerr)
	}
	if len(deltas) != 1 || tensor.GroupL2Norm(deltas[0]) == 0 {
		t.Fatal("secure round produced no update")
	}
}

func TestSecureClientAgainstPlainServerFails(t *testing.T) {
	spec, _ := dataset.Get("cancer")
	ds := dataset.New(spec, 1)
	srv, err := NewRoundServer("127.0.0.1:0") // plain
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		done <- runClient(srv.Addr(), 0, sgdStrategy{}, ds.Client(0), spec.ModelSpec(), 1, ClientOptions{Secure: true})
	}()
	model := nn.Build(spec.ModelSpec(), tensor.NewRNG(8))
	res, rerr := srv.StreamRound(0, model.Params(), RoundConfig{BatchSize: 4, LocalIters: 1, LR: 0.1}, NewFedSGD(), RoundOptions{Clients: 1})
	if cerr := <-done; cerr == nil {
		t.Fatal("a secure client must not get a receipt from a plain server")
	}
	// The mismatched peer costs its slot, not the round.
	if rerr != nil || res.Folded != 0 || res.Failed != 1 {
		t.Fatalf("round = %+v, %v; want the session counted as failed", res, rerr)
	}
}
