package netedge

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/telemetry"
)

// Handler serves decoded wire messages — the interface the middleware
// Gateway satisfies with ServeWire. transportID is the serving
// connection's unique identity, the value session binding pins tokens to.
// The payload slice aliases the connection's read buffer and is only valid
// until ServeWire returns: the next frame overwrites it. An implementation
// that keeps any of it must copy it. The middleware gateway does: its batch
// stage copies each payload it buffers, and its terminal handler copies a
// plaintext payload before the orderer keeps it.
type Handler interface {
	ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error)

// ServeWire implements Handler.
func (f HandlerFunc) ServeWire(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return f(ctx, topic, payload, transportID)
}

// options collects the server knobs; see the With* constructors.
type options struct {
	acceptLoops  int
	maxFrame     int
	queueDepth   int
	shed         bool
	idleTimeout  time.Duration
	writeTimeout time.Duration
	connClose    func(transportID string)
}

// Option configures a Server.
type Option func(*options)

// WithAcceptLoops shards the accept plane across n goroutines on the one
// listener (the kernel load-balances wakeups), so a connection storm is
// not serialized through a single accepter. Default 4.
func WithAcceptLoops(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.acceptLoops = n
		}
	}
}

// WithMaxFrame bounds the stream frame size accepted and produced.
// Default DefaultMaxFrame (1 MiB).
func WithMaxFrame(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithQueueDepth bounds each connection's outbound reply queue. Default 64.
func WithQueueDepth(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.queueDepth = n
		}
	}
}

// WithShedding switches full-queue behavior from blocking (backpressure
// propagates to the socket and stalls the peer's pipeline) to shedding:
// the connection is counted and closed with ErrBackpressure. Shedding is
// the posture for edges that must protect themselves from slow consumers
// at the cost of disconnecting them.
func WithShedding() Option {
	return func(o *options) { o.shed = true }
}

// WithIdleTimeout bounds how long a connection may sit without delivering
// a frame before the read deadline reaps it. Default 5m; 0 disables.
func WithIdleTimeout(d time.Duration) Option {
	return func(o *options) { o.idleTimeout = d }
}

// WithWriteTimeout bounds each reply write. Default 30s; 0 disables.
func WithWriteTimeout(d time.Duration) Option {
	return func(o *options) { o.writeTimeout = d }
}

// WithConnCloseHook runs fn with the connection's transport identity after
// the connection fully tears down — the hook cmd/gateway uses to reap the
// connection's bound sessions via SessionManager.EvictTransport.
func WithConnCloseHook(fn func(transportID string)) Option {
	return func(o *options) { o.connClose = fn }
}

// framePool recycles encode buffers for reply and request frames: the
// writer goroutine returns each buffer after the socket write, so steady
// state allocates nothing per reply.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// Server is the TCP edge: a sharded accept plane feeding per-connection
// reader/writer pairs, every decoded frame dispatched to the Handler with
// the connection's transport identity. Create with Serve or Listen; stop
// with Close.
type Server struct {
	h      Handler
	ln     net.Listener
	opt    options
	ctx    context.Context
	cancel context.CancelFunc

	connSeq   atomic.Uint64
	live      atomic.Int64
	accepted  atomic.Uint64
	closedCt  atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64
	sheds     atomic.Uint64
	frameErrs atomic.Uint64
	requests  atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	wg sync.WaitGroup
}

// EdgeStats is a snapshot of the server's counters, the numbers the
// confmw_edge_* metric families export.
type EdgeStats struct {
	// Live is the number of currently open connections.
	Live int64
	// Accepted and Closed count connections over the server's lifetime.
	Accepted uint64
	Closed   uint64
	// BytesIn and BytesOut count frame bytes crossing the sockets
	// (length prefixes included).
	BytesIn  uint64
	BytesOut uint64
	// Sheds counts connections dropped because their bounded outbound
	// queue was full in shedding mode.
	Sheds uint64
	// FrameErrors counts malformed or oversized stream frames (each also
	// closes its connection: framing errors are not recoverable on a
	// stream).
	FrameErrors uint64
	// Requests counts request frames dispatched to the handler.
	Requests uint64
}

// Serve starts the edge over an established listener. The returned server
// is already accepting; Close stops it and tears down every connection.
func Serve(ln net.Listener, h Handler, opts ...Option) *Server {
	opt := options{
		acceptLoops:  4,
		maxFrame:     DefaultMaxFrame,
		queueDepth:   64,
		idleTimeout:  5 * time.Minute,
		writeTimeout: 30 * time.Second,
	}
	for _, o := range opts {
		o(&opt)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		h:      h,
		ln:     ln,
		opt:    opt,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	for i := 0; i < opt.acceptLoops; i++ {
		s.wg.Add(1)
		go s.acceptLoop()
	}
	return s
}

// Listen binds addr (e.g. ":9444", "127.0.0.1:0") and serves the edge on
// it.
func Listen(addr string, h Handler, opts ...Option) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netedge: listen %s: %w", addr, err)
	}
	return Serve(ln, h, opts...), nil
}

// Addr reports the listener's address (the resolved port for ":0" binds).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection, and waits for all
// connection goroutines to finish. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.cancel()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// Stats snapshots the server's counters.
func (s *Server) Stats() EdgeStats {
	return EdgeStats{
		Live:        s.live.Load(),
		Accepted:    s.accepted.Load(),
		Closed:      s.closedCt.Load(),
		BytesIn:     s.bytesIn.Load(),
		BytesOut:    s.bytesOut.Load(),
		Sheds:       s.sheds.Load(),
		FrameErrors: s.frameErrs.Load(),
		Requests:    s.requests.Load(),
	}
}

// RegisterMetrics registers the edge counters into reg under the
// confmw_edge_* naming scheme.
func (s *Server) RegisterMetrics(reg *telemetry.Registry) error {
	if err := reg.GaugeFunc("confmw_edge_connections_live",
		"Currently open edge connections.", func() float64 { return float64(s.live.Load()) }); err != nil {
		return err
	}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"confmw_edge_connections_accepted_total", "Connections accepted by the edge.", s.accepted.Load},
		{"confmw_edge_connections_closed_total", "Connections fully torn down.", s.closedCt.Load},
		{"confmw_edge_bytes_in_total", "Frame bytes read off edge sockets.", s.bytesIn.Load},
		{"confmw_edge_bytes_out_total", "Frame bytes written to edge sockets.", s.bytesOut.Load},
		{"confmw_edge_backpressure_sheds_total", "Connections shed because their outbound queue was full.", s.sheds.Load},
		{"confmw_edge_frame_errors_total", "Malformed or oversized stream frames.", s.frameErrs.Load},
		{"confmw_edge_requests_total", "Request frames dispatched to the handler.", s.requests.Load},
	} {
		if err := reg.CounterFunc(c.name, c.help, c.fn); err != nil {
			return err
		}
	}
	return nil
}

// acceptLoop is one shard of the accept plane.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient accept failure (fd pressure, aborted handshake):
			// back off briefly instead of spinning the accept shard.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.accepted.Add(1)
		s.live.Add(1)
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// edgeConn is one live connection: its transport identity and its bounded
// outbound queue.
type edgeConn struct {
	c   net.Conn
	id  string
	out chan *[]byte
}

// serveConn runs one connection to completion: writer goroutine draining
// the bounded queue, reader loop inline (frame decode, handler dispatch,
// reply enqueue), then teardown — close, untrack, counters, close hook.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	// The transport identity: unique for the server's lifetime (sequence
	// number) and diagnosable (peer address). Sessions bind to this string.
	ec := &edgeConn{
		c:   c,
		id:  fmt.Sprintf("tcp:%d:%s", s.connSeq.Add(1), c.RemoteAddr()),
		out: make(chan *[]byte, s.opt.queueDepth),
	}
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		ec.writeLoop(s)
	}()
	s.readLoop(ec)
	close(ec.out)
	wwg.Wait()
	c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.live.Add(-1)
	s.closedCt.Add(1)
	if hook := s.opt.connClose; hook != nil {
		hook(ec.id)
	}
}

// readLoop decodes frames off the socket and dispatches them to the
// handler inline — per-connection submission order is therefore the order
// requests hit the chain and the orderer. Returns on the first read,
// framing, or enqueue failure; framing failures close the connection
// (stream framing cannot resynchronize) and count in FrameErrors.
func (s *Server) readLoop(ec *edgeConn) {
	br := bufio.NewReaderSize(ec.c, 16<<10)
	// The read buffer is per-connection and reused for every frame: the
	// decode path hands the gateway payload bytes zero-copy, which is safe
	// because ServeWire borrows rather than retains them.
	buf := make([]byte, 0, 4096)
	for {
		if s.opt.idleTimeout > 0 {
			_ = ec.c.SetReadDeadline(time.Now().Add(s.opt.idleTimeout))
		}
		f, nbuf, err := readFrame(br, buf, s.opt.maxFrame)
		buf = nbuf
		if err != nil {
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooBig) {
				s.frameErrs.Add(1)
			}
			return
		}
		s.bytesIn.Add(uint64(len(buf)) + 4)
		if f.kind != frameRequest {
			s.frameErrs.Add(1)
			return
		}
		s.requests.Add(1)
		reply, herr := s.h.ServeWire(s.ctx, f.topic, f.body, ec.id)
		bp := framePool.Get().(*[]byte)
		if herr != nil {
			*bp = appendFrame((*bp)[:0], frameError, f.id, "", []byte(herr.Error()))
		} else {
			*bp = appendFrame((*bp)[:0], frameOK, f.id, "", reply)
		}
		if !ec.enqueue(s, bp) {
			return
		}
	}
}

// enqueue places an encoded reply on the bounded outbound queue. Blocking
// mode stalls the reader (and through TCP, the peer) until the writer
// drains — bounded backpressure, never an unbounded queue. Shedding mode
// drops the connection instead, counting the shed. Returns false when the
// connection should die.
func (ec *edgeConn) enqueue(s *Server, bp *[]byte) bool {
	if s.opt.shed {
		select {
		case ec.out <- bp:
			return true
		default:
			s.sheds.Add(1)
			framePool.Put(bp)
			return false
		}
	}
	select {
	case ec.out <- bp:
		return true
	case <-s.ctx.Done():
		framePool.Put(bp)
		return false
	}
}

// writeLoop drains the outbound queue to the socket under the write
// deadline. On a write failure it closes the connection (unblocking the
// reader) but keeps draining the queue so a blocked reader enqueue can
// never deadlock teardown.
func (ec *edgeConn) writeLoop(s *Server) {
	failed := false
	for bp := range ec.out {
		if !failed {
			if s.opt.writeTimeout > 0 {
				_ = ec.c.SetWriteDeadline(time.Now().Add(s.opt.writeTimeout))
			}
			if _, err := ec.c.Write(*bp); err != nil {
				failed = true
				ec.c.Close()
			} else {
				s.bytesOut.Add(uint64(len(*bp)))
			}
		}
		framePool.Put(bp)
	}
}
