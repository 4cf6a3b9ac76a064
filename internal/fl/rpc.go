package fl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"fedcdp/internal/dataset"
	"fedcdp/internal/nn"
	"fedcdp/internal/tensor"
)

// This file provides a real network deployment of federated rounds: a
// server that pushes global parameters to connecting clients over TCP and
// folds their updates into an Aggregator as they arrive, in the wire
// encoding both ends are configured with — gob by default or the framed
// binary codec (codec.go) — dense or sparse per update, exact either way.
// A RoundServer serves one round per StreamRound call and owns no loop: the
// round engine (RunWith) drives it through core's runners — the simnet
// fabric in one process, core.Serve (cmd/fedserve, with cmd/fedclient on
// the other end) across processes. The paper assumes the channel itself is encrypted; set
// Secure for the X25519/AES-GCM handshake — the protocol above it is
// unchanged.
//
// Protocol: connect → (handshake) → server sends ParamMsg — either the
// round announcement or an explicit refusal (Denied) when no further
// round is available — → client sends UpdateMsg (dense Delta or sparse
// Sparse encoding) → server folds it. Client sessions are handled
// concurrently: each accepted connection gets its own goroutine, and
// sessions that arrive between rounds (or find the current round full)
// wait for the next round instead of being serialized behind an accept
// loop.

// TensorWire is the dense gob wire form of a tensor.
type TensorWire struct {
	Shape []int
	Data  []float64
}

// WireFromTensors converts tensors to their wire form (copying data).
func WireFromTensors(ts []*tensor.Tensor) []TensorWire {
	out := make([]TensorWire, len(ts))
	for i, t := range ts {
		out[i] = TensorWire{
			Shape: append([]int(nil), t.Shape()...),
			Data:  append([]float64(nil), t.Data()...),
		}
	}
	return out
}

// TensorsFromWire converts wire tensors back to *tensor.Tensor.
func TensorsFromWire(ws []TensorWire) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for i, w := range ws {
		out[i] = tensor.FromSlice(w.Data, w.Shape...)
	}
	return out
}

// ParamMsg is the server→client round announcement — or, with Denied set,
// the protocol-level "round over" refusal sent to sessions the server can
// no longer serve, instead of leaving them hanging on a dead socket.
type ParamMsg struct {
	Round  int
	Params []TensorWire
	Cfg    RoundConfig
	Denied bool
	Reason string
}

// UpdateMsg is the client→server local update. Exactly one of Delta
// (dense) or Sparse (indices + values) carries the payload; sparse is
// chosen by the client when most coordinates are zero (DSSGD, top-k
// compression — see EncodeUpdate). Weight is the client's local example
// count, consumed by weight-aware aggregators (example-count-weighted FedAvg);
// 0 — e.g. from a client predating the field, which gob decodes as the
// zero value — is treated as weight 1 at the fold.
type UpdateMsg struct {
	ClientID int
	Round    int
	Weight   float64
	Delta    []TensorWire
	Sparse   []SparseTensorWire
	// Partial is the third payload encoding: an edge aggregator's exact
	// partial fold, forwarded upstream in a hierarchical deployment (see
	// exact.go). ClientID then carries the edge's shard index — the
	// duplicate-session dedup applies to shards exactly as to clients.
	Partial *PartialWire
}

// Tensors decodes the update payload, whichever encoding was used.
func (m *UpdateMsg) Tensors() []*tensor.Tensor {
	if len(m.Sparse) > 0 {
		return TensorsFromSparse(m.Sparse)
	}
	return TensorsFromWire(m.Delta)
}

// AckMsg is the server→client receipt for an update: Accepted reports
// whether the update reached its round before the round closed. A client
// whose update missed the straggler cutoff learns it here instead of
// counting a discarded update as a success.
type AckMsg struct {
	Accepted bool
	Reason   string
}

// ErrRoundClosed is returned by remote clients whose session was refused
// because the server has no further round for them.
var ErrRoundClosed = errors.New("fl: round closed by server")

// RoundServer accepts client connections and coordinates federated rounds
// over TCP. Sessions are handled concurrently; a session that arrives
// while no round is open waits for the next one (the listen-backlog
// semantics of the original serial server, made explicit), and is sent a
// ParamMsg refusal if the server shuts down first. With Secure set
// (before the first round), every connection runs the X25519/AES-GCM
// handshake before the protocol.
type RoundServer struct {
	ln     net.Listener
	Secure bool
	// Codec is the wire encoding this server speaks: CodecGob ("" defaults
	// to it), the legacy self-describing protocol byte for byte, or
	// CodecBinary (codec.go). Its clients must speak the same; one that
	// speaks the other fails its session at the first frame, and the round
	// counts it failed. Set before the first round; StreamRound refuses an
	// unknown codec.
	Codec string
	// Clock drives round deadlines; nil uses the system clock (tests
	// inject fakes).
	Clock Clock

	accept   sync.Once
	mu       sync.Mutex
	cond     *sync.Cond
	cur      *roundState
	waiting  int
	closed   bool
	closedCh chan struct{}
}

// roundState is one open round: its announcement, admission quota and
// result stream. results is buffered to the full quota — at most max
// sessions are admitted-but-unresolved at any moment and each delivers at
// most once (duplicates never enter the stream) — so sends under the
// mutex never block.
type roundState struct {
	round    int
	cfg      RoundConfig
	wire     []TensorWire
	max      int
	admitted int
	cutoff   time.Time // wall-clock transport deadline; zero = none

	mu      sync.Mutex
	closed  bool
	folded  map[int]bool // client ids whose update this round already folded
	dups    int          // re-submissions acknowledged but not folded
	results chan sessionResult
}

type sessionResult struct {
	client  int
	update  []*tensor.Tensor
	weight  float64
	partial *Partial   // set instead of update on edge→root sessions
	msg     *UpdateMsg // what update was decoded from; the fold recycles it
	err     error
}

// updateMsgPool recycles the messages sessions decode updates into. A dense
// update's tensors alias its message's buffers, so a message goes back only
// once its update has been folded.
var updateMsgPool = sync.Pool{New: func() any { return new(UpdateMsg) }}

// deliverStatus reports how the round loop received a session's outcome.
type deliverStatus int

const (
	// deliverClosed: the round closed first; the outcome was dropped. The
	// session reports that to its client in the AckMsg, so "sent" never
	// silently diverges from "folded".
	deliverClosed deliverStatus = iota
	// deliverTaken: the outcome reached the round loop (an update will be
	// folded, an error counted).
	deliverTaken
	// deliverDup: the round already folded an update from this client; the
	// retry is acknowledged but not folded again.
	deliverDup
)

// deliver hands a session's outcome to the round loop. Delivering under
// the mutex makes the contract exact: every taken delivery lands in the
// buffer before close() returns, and the round loop drains that buffer
// once more after closing.
//
// Successful deliveries are deduplicated by client id: a client that was
// folded but never saw its ack (the conn died first) re-submits after
// reconnecting, and folding that retry would double-count its data — so
// the retry is acknowledged as already folded and not folded again (the
// regression is pinned in reconnect_test.go). A duplicate never enters
// the result stream and never consumes a completion slot: the round keeps
// waiting for its quota of DISTINCT clients, and the duplicate session's
// admission slot is released (handle() calls releaseSlot) so a client
// still waiting to join is not locked out by a retry.
func (st *roundState) deliver(res sessionResult) deliverStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return deliverClosed
	}
	if res.err == nil {
		if st.folded == nil {
			st.folded = map[int]bool{}
		}
		if st.folded[res.client] {
			st.dups++
			return deliverDup
		}
		st.folded[res.client] = true
	}
	st.results <- res
	return deliverTaken
}

// close stops further deliveries.
func (st *roundState) close() {
	st.mu.Lock()
	st.closed = true
	st.mu.Unlock()
}

// NewRoundServer listens on addr (e.g. "127.0.0.1:0") over TCP.
func NewRoundServer(addr string) (*RoundServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("fl: listening on %s: %w", addr, err)
	}
	return NewRoundServerOn(ln), nil
}

// NewRoundServerOn runs a round server over an arbitrary transport: any
// net.Listener works — real TCP (NewRoundServer wraps this) or an
// in-memory fabric like internal/simnet, which is how an entire federated
// deployment runs deterministically inside one test process.
func NewRoundServerOn(ln net.Listener) *RoundServer {
	s := &RoundServer{ln: ln, closedCh: make(chan struct{})}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Addr returns the server's listen address.
func (s *RoundServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections, refuses every waiting session with
// an explicit round-over message, and aborts any round in flight.
func (s *RoundServer) Close() error {
	err := s.ln.Close()
	s.shutdown()
	return err
}

// shutdown marks the server closed and wakes every waiting session so it
// can send its refusal.
func (s *RoundServer) shutdown() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.closedCh)
	s.cond.Broadcast()
}

// acceptLoop accepts connections for the server's lifetime, one handler
// goroutine per session. Started lazily on the first round so Secure can
// be set after construction.
func (s *RoundServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.shutdown()
			return
		}
		go s.handle(conn)
	}
}

// admit blocks until the open round has a free slot (reserving it) or the
// server is closed (nil). A session that finds no open round — or a full
// one — waits for the next.
func (s *RoundServer) admit() *roundState {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waiting++
	defer func() { s.waiting-- }()
	for {
		if s.closed {
			return nil
		}
		if st := s.cur; st != nil && st.admitted < st.max {
			st.admitted++
			return st
		}
		s.cond.Wait()
	}
}

// releaseSlot returns a session's admission slot to the round — called
// when the session resolved as a duplicate, so the quota it occupied must
// go back to a distinct client still waiting in admit(). Harmless if the
// round already advanced.
func (s *RoundServer) releaseSlot(st *roundState) {
	s.mu.Lock()
	st.admitted--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// waitingSessions reports how many sessions are parked until a round
// opens (introspection; tests use it to sequence close/denial paths).
func (s *RoundServer) waitingSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiting
}

// handle runs one client session end to end, in the server's codec from
// the first byte. One session object serves the whole connection (gob
// decoders buffer ahead, so a second decoder on the same stream would lose
// bytes).
func (s *RoundServer) handle(conn net.Conn) {
	defer conn.Close()
	var rw io.ReadWriter = conn
	if s.Secure {
		sc, err := Handshake(conn)
		if err != nil {
			return
		}
		rw = sc
	}
	sess, err := newSession(rw, s.Codec)
	if err != nil {
		return // StreamRound refuses an unknown codec before it accepts
	}
	st := s.admit()
	if st == nil {
		// Protocol-level "round over": late sessions get an answer, not a
		// hang or a bare RST.
		_ = sess.WriteParam(&ParamMsg{Denied: true, Reason: "no further rounds"})
		return
	}
	if !st.cutoff.IsZero() {
		// Transport safety net for deadline rounds: a client that hangs
		// after admission must not pin this goroutine and connection
		// forever. Wall-clock on purpose — it bounds I/O, not the round.
		_ = conn.SetDeadline(st.cutoff.Add(5 * time.Second))
	}
	if err := sess.WriteParam(&ParamMsg{Round: st.round, Params: st.wire, Cfg: st.cfg}); err != nil {
		st.deliver(sessionResult{err: fmt.Errorf("fl: sending params: %w", err)})
		return
	}
	upd := updateMsgPool.Get().(*UpdateMsg)
	defer func() {
		if upd != nil {
			updateMsgPool.Put(upd)
		}
	}()
	if err := sess.ReadUpdate(upd); err != nil {
		st.deliver(sessionResult{err: fmt.Errorf("fl: reading update: %w", err)})
		return
	}
	if upd.Round != st.round {
		st.deliver(sessionResult{err: fmt.Errorf("fl: client answered round %d, want %d", upd.Round, st.round)})
		_ = sess.WriteAck(&AckMsg{Reason: fmt.Sprintf("round %d is over", upd.Round)})
		return
	}
	// Hostile-input gate: the update must be structurally valid AND foldable
	// against this round's parameters before it reaches the aggregator — a
	// malformed peer gets an error, never a server panic.
	res := sessionResult{client: upd.ClientID, weight: upd.Weight}
	if upd.Partial != nil {
		// Edge→root partial fold: validated and geometry-checked exactly
		// like a client update; ClientID is the shard index, so the dedup
		// below absorbs an edge re-submitting after a lost ack.
		err := upd.Validate()
		if err == nil {
			err = partialMatchesParams(upd.Partial, st.wire)
		}
		if err == nil {
			res.partial, err = PartialFromWire(upd.Partial)
		}
		if err != nil {
			st.deliver(sessionResult{err: err})
			_ = sess.WriteAck(&AckMsg{Reason: err.Error()})
			return
		}
	} else {
		update, err := upd.DecodeTensors()
		if err == nil {
			err = updateMatchesParams(update, st.wire)
		}
		if err != nil {
			st.deliver(sessionResult{err: err})
			_ = sess.WriteAck(&AckMsg{Reason: err.Error()})
			return
		}
		res.update, res.msg = update, upd
	}
	switch st.deliver(res) {
	case deliverTaken:
		if res.msg != nil {
			upd = nil // the round's fold owns it now
		}
		_ = sess.WriteAck(&AckMsg{Accepted: true})
	case deliverDup:
		// The client's data IS in the round (its first copy was folded), so
		// the honest receipt is an acceptance — just not a second fold. Its
		// admission slot goes back to the round: a duplicate must never
		// consume quota a distinct client is waiting for.
		s.releaseSlot(st)
		_ = sess.WriteAck(&AckMsg{Accepted: true, Reason: "duplicate update: already folded this round"})
	default:
		_ = sess.WriteAck(&AckMsg{Reason: "round closed before the update arrived"})
	}
}

// RoundOptions configures one streaming round.
type RoundOptions struct {
	// Clients is the number of client sessions admitted to the round (Kt).
	Clients int
	// Deadline is the straggler cutoff measured from the round opening;
	// zero waits until every admitted session resolves. Either way a
	// session that fails — a peer that disconnects, sends garbage or
	// answers the wrong round — costs its slot (RoundResult.Failed), never
	// the round.
	Deadline time.Duration
	// MinQuorum is the minimum number of folded clients — the aggregator's
	// Count, which at a hierarchical root sums what its edges carried, so
	// quorum is population-level in either topology — required to commit;
	// below it the round closes without applying the aggregate.
	MinQuorum int
}

// RoundResult reports what a streaming round collected.
type RoundResult struct {
	Folded int
	Failed int
	// Duplicates counts re-submissions from clients whose update was
	// already folded this round (reconnects after a lost ack); their data
	// is in the aggregate exactly once, and a duplicate never consumes a
	// slot of the round's Clients quota.
	Duplicates int
	Committed  bool
}

// StreamRound serves one federated round with O(model) server memory:
// it announces (round, params, cfg) to up to opt.Clients concurrently
// handled sessions and folds each update into agg the moment it arrives.
// On commit (quorum met) the aggregate is applied to params in place.
func (s *RoundServer) StreamRound(round int, params []*tensor.Tensor, cfg RoundConfig, agg Aggregator, opt RoundOptions) (RoundResult, error) {
	switch {
	case opt.Clients <= 0:
		return RoundResult{}, fmt.Errorf("fl: streaming round needs a positive client count, got %d", opt.Clients)
	case !ValidCodec(s.Codec):
		// Every session would fail before admission, leaving the round
		// waiting for sessions that never arrive.
		return RoundResult{}, fmt.Errorf("fl: unknown wire codec %q", s.Codec)
	}
	s.accept.Do(func() { go s.acceptLoop() })

	st := &roundState{
		round:   round,
		cfg:     cfg,
		wire:    WireFromTensors(params),
		max:     opt.Clients,
		results: make(chan sessionResult, opt.Clients),
	}
	if opt.Deadline > 0 {
		st.cutoff = time.Now().Add(opt.Deadline)
	}
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return RoundResult{}, fmt.Errorf("fl: server closed")
	case s.cur != nil:
		s.mu.Unlock()
		return RoundResult{}, fmt.Errorf("fl: round %d still open", s.cur.round)
	}
	s.cur = st
	s.cond.Broadcast()
	s.mu.Unlock()

	closeRound := func() {
		s.mu.Lock()
		s.cur = nil
		s.mu.Unlock()
		st.close()
	}

	agg.Begin(params)
	clock := s.Clock
	if clock == nil {
		clock = SystemClock
	}
	var deadlineC <-chan time.Time
	if opt.Deadline > 0 {
		deadlineC = clock.After(opt.Deadline)
	}

	var res RoundResult
	fold := func(r sessionResult) {
		if r.err != nil {
			res.Failed++
			return
		}
		if r.partial != nil {
			pf, ok := agg.(PartialFolder)
			if !ok {
				res.Failed++
				return
			}
			if err := pf.FoldPartial(r.partial); err != nil {
				res.Failed++
				return
			}
			res.Folded++
			return
		}
		foldInto(agg, r.update, r.weight)
		updateMsgPool.Put(r.msg)
		res.Folded++
	}
	// Duplicates are acknowledged out-of-band (roundState.deliver) and do
	// not count toward the quota: the round holds out for opt.Clients
	// DISTINCT resolutions — the premature-commit regression where a fast
	// client's re-submission consumed a slower client's slot is pinned in
	// reconnect_test.go.
collect:
	for res.Folded+res.Failed < opt.Clients {
		select {
		case r := <-st.results:
			fold(r)
		case <-deadlineC:
			// Straggler cutoff: close the round, then fold whatever was
			// already delivered (the post-close drain below).
			break collect
		case <-s.closedCh:
			closeRound()
			return res, fmt.Errorf("fl: server closed during round %d", round)
		}
	}
	closeRound()
	// Every acked delivery landed in the buffer before the round closed
	// (see roundState.deliver); fold the stragglers that made the cut.
drain:
	for {
		select {
		case r := <-st.results:
			fold(r)
		default:
			break drain
		}
	}
	st.mu.Lock()
	res.Duplicates = st.dups
	st.mu.Unlock()
	res.Committed = agg.Count() >= opt.MinQuorum
	if res.Committed {
		agg.Commit(params)
	}
	return res, nil
}

// DialFunc opens a client connection to a server address. The default is
// TCP; internal/simnet provides in-memory fabric dialers so whole
// deployments run inside one process.
type DialFunc func(addr string) (net.Conn, error)

// ClientOptions configures how a remote client reaches its server.
type ClientOptions struct {
	// Secure runs the X25519/AES-GCM handshake before the protocol (the
	// server's Secure must be set too).
	Secure bool
	// Dial opens the connection; nil dials TCP.
	Dial DialFunc
	// Codec is the wire encoding this client speaks: CodecGob ("" defaults
	// to it) or CodecBinary. It must be the server's (RoundServer.Codec);
	// against the other one the session fails at the round announcement
	// with an error naming both.
	Codec string
	// ExpectDigest, when set, is the canonical config digest this client
	// was launched from (see internal/config): the client refuses a round
	// announcement whose RoundConfig carries a different non-empty digest,
	// so a config-driven fleet cannot silently train against a server
	// running another experiment. A server with no digest (literal-assembled)
	// is accepted — the stamp is an integrity check, not a capability.
	ExpectDigest string
}

func (o ClientOptions) dial(addr string) (net.Conn, error) {
	if o.Dial != nil {
		return o.Dial(addr)
	}
	return net.Dial("tcp", addr)
}

// RunRemoteClientRound connects to a round server, performs one round of
// local training with the given strategy, and sends back the update (sparse
// encoding when the update is mostly zeros). It returns the round the
// server served; a nil error means the server acknowledged folding the
// update into it (an update that missed a straggler cutoff is an error),
// and the error wraps ErrRoundClosed when the server has no further round.
// A client looping until it has contributed N rounds must count DISTINCT
// rounds, not sessions: a server still collecting a round re-serves it to a
// fast client (it cannot advance until every cohort slot resolves), whose
// session then trains the byte-identical update — local training is a pure
// function of (seed, round, clientID) — and resolves as an acknowledged
// duplicate (see cmd/fedclient).
func RunRemoteClientRound(addr string, clientID int, strat Strategy, data *dataset.ClientData, spec nn.Spec, seed int64, opt ClientOptions) (int, error) {
	s, err := openSession(addr, opt, new(ParamMsg))
	if err != nil {
		return 0, err
	}
	defer s.conn.Close()
	return s.pm.Round, s.submit(newWorker(spec), strat, seed, clientID, data, nil)
}

// clientConn is one client-side session opened up to the round
// announcement.
type clientConn struct {
	wireSession
	conn net.Conn
	pm   *ParamMsg
}

// openSession is the client half of the protocol up to and including the
// round announcement — dial, the optional encryption handshake, the
// ParamMsg in the client's codec, the server's refusal, structural validation
// and the experiment-digest check — shared by every kind of session: the
// training client, the mux worker, the abandoning client and the edge
// forwarding a partial. The announcement is decoded into pm, reusing its
// buffers. The caller closes conn.
func openSession(addr string, opt ClientOptions, pm *ParamMsg) (s *clientConn, err error) {
	conn, err := opt.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("fl: dialing %s: %w", addr, err)
	}
	defer func() {
		if err != nil {
			conn.Close()
		}
	}()
	var rw io.ReadWriter = conn
	if opt.Secure {
		sc, err := Handshake(conn)
		if err != nil {
			return nil, err
		}
		rw = sc
	}
	sess, err := newSession(rw, opt.Codec)
	if err != nil {
		return nil, err
	}
	s = &clientConn{wireSession: sess, conn: conn, pm: pm}
	if err := s.ReadParam(pm); err != nil {
		return nil, fmt.Errorf("fl: reading params: %w", err)
	}
	if s.pm.Denied {
		return nil, fmt.Errorf("%w: %s", ErrRoundClosed, s.pm.Reason)
	}
	if err := s.pm.Validate(); err != nil {
		return nil, fmt.Errorf("fl: invalid round announcement: %w", err)
	}
	if d := s.pm.Cfg.ConfigDigest; opt.ExpectDigest != "" && d != "" && d != opt.ExpectDigest {
		return nil, fmt.Errorf("fl: server is running experiment %s, this client was configured for %s", d, opt.ExpectDigest)
	}
	return s, nil
}

// submit trains the announced round as client id on the worker and sends
// the update; a nil return means the server acknowledged folding it. The
// update is the caller's (see Strategy), so once it is on the wire its
// buffers go back to the worker's arena for the next client.
func (s *clientConn) submit(w *worker, strat Strategy, seed int64, id int, data *dataset.ClientData, plan Plan) error {
	pm := s.pm
	if pm.Cfg.Scenario.Name != "" {
		// The server published a heterogeneity scenario with the round
		// config: repartition the local dataset view so this client's shard
		// matches the assignment every other participant uses. Pinned to the
		// announced round so time-varying scenarios (incremental classes,
		// decaying label noise) resolve to the same shard on every runtime.
		p, err := pm.Cfg.Scenario.Partitioner()
		if err != nil {
			return err
		}
		data = data.RepartitionAt(p, pm.Round)
	}
	delta, _ := w.step(strat, seed, pm.Round, id, TensorsFromWire(pm.Params), pm.Cfg, data, plan)
	err := s.WriteUpdateTensors(id, pm.Round, float64(data.Len()), delta)
	w.arena.Put(delta...)
	if err != nil {
		return fmt.Errorf("fl: sending update: %w", err)
	}
	return s.receipt("update")
}

// receipt reads the server's ack for what the session just sent.
func (s *clientConn) receipt(what string) error {
	var ack AckMsg
	if err := s.ReadAck(&ack); err != nil {
		return fmt.Errorf("fl: reading %s receipt: %w", what, err)
	}
	if !ack.Accepted {
		return fmt.Errorf("fl: %s not folded: %s", what, ack.Reason)
	}
	return nil
}

// AbandonSession connects to a round server, receives the round
// announcement, and disconnects without submitting an update — the wire
// footprint of a client that crashes mid-round (or whose update is lost in
// transit). The server observes the session error and counts the client as
// failed; fault-injection harnesses (ClientMux's Abandon tasks) use this to
// realize a plan's crash and drop events at the transport level. Returns the
// announced round, or an error if no announcement arrived (e.g. the
// session was denied).
func AbandonSession(addr string, opt ClientOptions) (int, error) {
	s, err := openSession(addr, opt, new(ParamMsg))
	if err != nil {
		return 0, err
	}
	s.conn.Close()
	return s.pm.Round, nil
}

// SendPartial forwards an edge aggregator's partial fold to the root for a
// round: the edge-side half of the hierarchical protocol. shard is the
// edge's index in the tree topology (it rides in ClientID, so the root's
// duplicate dedup covers edge re-submissions); the root's announced round
// must match round, or the session resolves as an error. A nil return
// means the root acknowledged folding the partial.
func SendPartial(addr string, shard, round int, p *Partial, opt ClientOptions) error {
	s, err := openSession(addr, opt, new(ParamMsg))
	if err != nil {
		return err
	}
	defer s.conn.Close()
	if s.pm.Round != round {
		return fmt.Errorf("fl: root is serving round %d, partial is for %d", s.pm.Round, round)
	}
	if err := s.WriteUpdate(&UpdateMsg{ClientID: shard, Round: round, Partial: p.Wire()}); err != nil {
		return fmt.Errorf("fl: sending partial: %w", err)
	}
	return s.receipt("partial")
}
