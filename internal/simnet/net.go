package simnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Net is an in-memory, single-process network fabric: listeners and
// connections with net.Listener / net.Conn interfaces, a shared virtual
// Clock, and a seeded fault Plan deciding every message's fate. An entire
// multi-host federated deployment (server + clients) runs through it in
// one test process with zero real-time sleeps: latency, jitter, message
// loss, duplication and partitions are all virtual and all replayable from
// the seed.
//
// Stream semantics follow TCP: bytes within one connection are delivered
// reliably and in order, or the connection breaks (a lost message cuts the
// link — both ends observe errors, exactly the failure surface a real
// deployment sees). Reordering therefore happens across connections, via
// per-link latency and jitter, never inside one.
type Net struct {
	seed  int64
	plan  *Plan
	clock *Clock

	round atomic.Int64
	bytes atomic.Int64

	mu        sync.Mutex
	listeners map[string]*listener
	linkSeq   map[string]int64
}

// New returns a fabric driven by the given fault plan (nil = no faults).
func New(seed int64, plan *Plan) *Net {
	if plan == nil {
		plan = &Plan{}
	}
	return &Net{
		seed:      seed,
		plan:      plan,
		clock:     newClock(),
		listeners: map[string]*listener{},
		linkSeq:   map[string]int64{},
	}
}

// Clock returns the fabric's virtual clock (inject it wherever an fl.Clock
// is accepted so deadlines run on virtual time).
func (n *Net) Clock() *Clock { return n.clock }

// SetRound tells the fabric which federated round is in progress; fault
// coins and partitions are keyed by it. The round-loop harness calls it
// between rounds.
func (n *Net) SetRound(r int) { n.round.Store(int64(r)) }

// Round returns the fabric's current round.
func (n *Net) Round() int { return int(n.round.Load()) }

// BytesWritten returns the cumulative payload bytes written to all fabric
// connections since New — every Write counts, whether the fabric then
// delivers, duplicates or cuts the message. Harnesses diff it between
// rounds to report per-round wire traffic.
func (n *Net) BytesWritten() int64 { return n.bytes.Load() }

// errors surfaced by the fabric.
var (
	errLinkCut   = errors.New("simnet: connection reset (link cut)")
	errRefused   = errors.New("simnet: connection refused")
	errPartition = errors.New("simnet: host partitioned")
)

// simAddr is a fabric address (an arbitrary host string).
type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

// listener is an in-fabric net.Listener bound to one address.
type listener struct {
	net     *Net
	addr    string
	pending chan *conn
	done    chan struct{}
	once    sync.Once
}

// Listen binds addr on the fabric. Rebinding a closed address works (a
// restarted server reclaims its old address); binding a live one errors.
func (n *Net) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("simnet: address %s in use", addr)
	}
	l := &listener{
		net:     n,
		addr:    addr,
		pending: make(chan *conn, 1024),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener: the address is released for rebinding.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return simAddr(l.addr) }

// Dialer returns a dial function for a named host on this fabric —
// fl.ClientOptions.Dial-compatible. The host name identifies the endpoint
// to partitions and per-link fault streams.
func (n *Net) Dialer(host string) func(addr string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) { return n.dial(host, addr) }
}

func (n *Net) dial(from, addr string) (net.Conn, error) {
	round := n.Round()
	if n.plan.Partitioned(round, from, addr) {
		return nil, fmt.Errorf("%w: %s cannot reach %s in round %d", errPartition, from, addr, round)
	}
	n.mu.Lock()
	l, ok := n.listeners[addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: no listener on %s", errRefused, addr)
	}
	seq := n.linkSeq[from+"|"+addr]
	n.linkSeq[from+"|"+addr] = seq + 1
	n.mu.Unlock()

	toClient := newQueue(n.clock)
	toServer := newQueue(n.clock)
	client := &conn{n: n, local: from, remote: addr, link: linkID(from, addr, seq), in: toClient, out: toServer}
	server := &conn{n: n, local: addr, remote: from, link: linkID(addr, from, seq), in: toServer, out: toClient}
	select {
	case l.pending <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("%w: listener on %s closed", errRefused, addr)
	default:
		return nil, fmt.Errorf("simnet: %s backlog full", addr)
	}
}

// linkID derives the fault-stream key of one link direction. The nth
// connection for an ordered host pair always gets the same key, so message
// fates are independent of goroutine scheduling.
func linkID(from, to string, seq int64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, from)
	h.Write([]byte{0})
	io.WriteString(h, to)
	h.Write([]byte{0, byte(seq), byte(seq >> 8), byte(seq >> 16), byte(seq >> 24), byte(seq >> 32), byte(seq >> 40), byte(seq >> 48), byte(seq >> 56)})
	return h.Sum64()
}

// framePool recycles message buffers: Write copies each payload into one,
// and the reading queue returns it once the reader has drained it. A
// message that is never read — queued behind a cut, or still in flight when
// either end closes — is left to the collector.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// newFrame returns a pooled buffer holding a copy of p.
func newFrame(p []byte) *[]byte {
	f := framePool.Get().(*[]byte)
	*f = append((*f)[:0], p...)
	return f
}

// message is one Write's payload with its virtual delivery stamp; cut
// marks the point where the link broke.
type message struct {
	frame *[]byte
	at    time.Time
	cut   bool
}

// queue is one direction of a connection: a FIFO of messages plus the
// stream state the reader consumes it through.
type queue struct {
	clock   *Clock
	mu      sync.Mutex
	cond    *sync.Cond
	msgs    []message
	frame   *[]byte // front message's buffer, back to framePool once drained
	head    []byte  // unread rest of *frame
	cut     bool    // link broke at the front of the stream
	closed  bool    // writer closed: EOF after drain
	rclosed bool    // reader closed: reads fail immediately
}

func newQueue(clock *Clock) *queue {
	q := &queue{clock: clock}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) push(frame *[]byte, at time.Time, cut bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.msgs = append(q.msgs, message{frame: frame, at: at, cut: cut})
	q.cond.Broadcast()
}

func (q *queue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

func (q *queue) rclose() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.rclosed = true
	q.cond.Broadcast()
}

// read blocks until stream bytes, EOF, or a failure is available. When the
// front message carries a future virtual stamp, reading it advances the
// fabric clock to that stamp — the discrete-event rule that gives latency
// meaning without any real sleeping.
func (q *queue) read(p []byte) (int, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.rclosed:
			return 0, net.ErrClosed
		case q.cut:
			return 0, errLinkCut
		case len(q.head) > 0:
			n := copy(p, q.head)
			q.head = q.head[n:]
			if len(q.head) == 0 {
				framePool.Put(q.frame)
				q.frame = nil
			}
			return n, nil
		case len(q.msgs) > 0:
			m := q.msgs[0]
			q.msgs = q.msgs[1:]
			q.clock.AdvanceTo(m.at)
			if m.cut {
				q.cut = true
				return 0, errLinkCut
			}
			q.frame, q.head = m.frame, *m.frame
		case q.closed:
			return 0, io.EOF
		default:
			q.cond.Wait()
		}
	}
}

// conn is one endpoint of an in-fabric connection.
type conn struct {
	n      *Net
	local  string
	remote string
	link   uint64
	in     *queue // this endpoint reads here
	out    *queue // this endpoint writes into the peer's inbound queue

	mu      sync.Mutex
	seq     int64
	lastAt  time.Time
	cutSend bool
	closed  bool
}

// Read implements net.Conn.
func (c *conn) Read(p []byte) (int, error) { return c.in.read(p) }

// Write implements net.Conn: each call is one fabric message. The plan
// decides its fate — cut (lost; the link breaks for both directions of
// traffic past this point), duplicated, or delayed. Delivery stamps are
// monotone per link, preserving TCP's in-order contract.
func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.cutSend {
		return 0, errLinkCut
	}
	seq := c.seq
	c.seq++
	c.n.bytes.Add(int64(len(p)))
	cut, dup, delay := c.n.plan.msgFate(c.n.seed, c.n.Round(), c.link, seq)
	at := c.n.clock.Now().Add(delay)
	if at.Before(c.lastAt) {
		at = c.lastAt
	}
	c.lastAt = at
	if cut {
		// The message is lost and the stream cannot recover: the peer
		// observes a reset once it drains what was delivered before the
		// cut, and this endpoint's next write fails.
		c.cutSend = true
		c.out.push(nil, at, true)
		return len(p), nil
	}
	// net.Conn must not retain p, so the fabric carries a copy.
	c.out.push(newFrame(p), at, false)
	if dup {
		c.out.push(newFrame(p), at, false)
	}
	return len(p), nil
}

// Close implements net.Conn: the peer sees EOF after draining delivered
// bytes; local reads fail immediately.
func (c *conn) Close() error {
	c.mu.Lock()
	already := c.closed
	c.closed = true
	c.mu.Unlock()
	if already {
		return nil
	}
	c.out.close()
	c.in.rclose()
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return simAddr(c.local) }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return simAddr(c.remote) }

// SetDeadline implements net.Conn. Fabric I/O deadlines are advisory
// no-ops: real deadlines exist to bound I/O against wall time, and the
// fabric has no wall — round-level cutoffs run on the virtual Clock
// instead.
func (c *conn) SetDeadline(t time.Time) error { return nil }

// SetReadDeadline implements net.Conn (no-op; see SetDeadline).
func (c *conn) SetReadDeadline(t time.Time) error { return nil }

// SetWriteDeadline implements net.Conn (no-op; see SetDeadline).
func (c *conn) SetWriteDeadline(t time.Time) error { return nil }
