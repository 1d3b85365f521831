package netedge

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/pki"
)

// dialOptions collects the client knobs; see the With* constructors.
type dialOptions struct {
	inFlight int
	shed     bool
	maxFrame int
	timeout  time.Duration
}

// DialOption configures a Client.
type DialOption func(*dialOptions)

// WithInFlight bounds how many requests the client keeps in flight on the
// connection at once — the pipelining window. A full window blocks Call
// (default) or, with WithClientShedding, fails it with ErrBackpressure.
// Default 1024.
func WithInFlight(n int) DialOption {
	return func(o *dialOptions) {
		if n > 0 {
			o.inFlight = n
		}
	}
}

// WithClientShedding makes a full in-flight window fail Call with
// ErrBackpressure instead of blocking — the deterministic client-side
// backpressure signal.
func WithClientShedding() DialOption {
	return func(o *dialOptions) { o.shed = true }
}

// WithClientMaxFrame bounds reply frames the client will accept. Default
// DefaultMaxFrame.
func WithClientMaxFrame(n int) DialOption {
	return func(o *dialOptions) {
		if n > 0 {
			o.maxFrame = n
		}
	}
}

// WithDialTimeout bounds the TCP connect. Default 10s.
func WithDialTimeout(d time.Duration) DialOption {
	return func(o *dialOptions) {
		if d > 0 {
			o.timeout = d
		}
	}
}

// callResult carries one reply (or the connection's death) to its waiter.
type callResult struct {
	b   []byte
	err error
}

// Client is one pipelined edge connection: concurrent-safe, many requests
// in flight matched to replies by request id, in-flight window bounded.
// One goroutine reads the socket; each call writes its frame with one
// syscall under the write mutex.
type Client struct {
	conn     net.Conn
	maxFrame int
	shed     bool

	wmu  sync.Mutex
	wbuf []byte // the frame being written, reused across calls

	window chan struct{}
	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]chan callResult

	done     chan struct{}
	failOnce sync.Once
	errv     atomic.Value
}

// Dial connects to an edge server.
func Dial(addr string, opts ...DialOption) (*Client, error) {
	opt := dialOptions{inFlight: 1024, maxFrame: DefaultMaxFrame, timeout: 10 * time.Second}
	for _, o := range opts {
		o(&opt)
	}
	conn, err := net.DialTimeout("tcp", addr, opt.timeout)
	if err != nil {
		return nil, fmt.Errorf("netedge: dial %s: %w", addr, err)
	}
	return newClient(conn, opt), nil
}

// newClient runs the client protocol over an established connection.
func newClient(conn net.Conn, opt dialOptions) *Client {
	c := &Client{
		conn:     conn,
		maxFrame: opt.maxFrame,
		shed:     opt.shed,
		window:   make(chan struct{}, opt.inFlight),
		pending:  make(map[uint64]chan callResult),
		done:     make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
// Idempotent.
func (c *Client) Close() error {
	c.fail(ErrClosed)
	return nil
}

// fail records the connection's terminal error once, closes the socket,
// and fails every pending call.
func (c *Client) fail(err error) {
	c.failOnce.Do(func() {
		c.errv.Store(err)
		close(c.done)
		c.conn.Close()
		c.pmu.Lock()
		for id, ch := range c.pending {
			delete(c.pending, id)
			ch <- callResult{err: err}
		}
		c.pmu.Unlock()
	})
}

// err reports why the connection died.
func (c *Client) err() error {
	if e, ok := c.errv.Load().(error); ok {
		return e
	}
	return ErrClosed
}

// readLoop is the one socket reader: it matches reply frames to pending
// calls by request id. Reply payloads are copied out of the reused read
// buffer before delivery, so callers own what they receive.
func (c *Client) readLoop() {
	br := bufio.NewReaderSize(c.conn, 16<<10)
	buf := make([]byte, 0, 4096)
	for {
		f, nbuf, err := readFrame(br, buf, c.maxFrame)
		buf = nbuf
		if err != nil {
			c.fail(fmt.Errorf("netedge: read: %w", err))
			return
		}
		var res callResult
		switch f.kind {
		case frameOK:
			if len(f.body) > 0 {
				res.b = append([]byte(nil), f.body...)
			}
		case frameError:
			res.err = &WireError{Msg: string(f.body)}
		default:
			c.fail(fmt.Errorf("%w: server sent kind 0x%02x", ErrBadFrame, f.kind))
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.id]
		if ok {
			delete(c.pending, f.id)
		}
		c.pmu.Unlock()
		if ok {
			ch <- res
		}
	}
}

// PendingCall is one request in flight: the handle CallAsync returns. The
// reply arrives through Wait, which also releases the call's in-flight
// window slot — every PendingCall must be waited on eventually (batched-ack
// pipelining waits after the sends), or the window leaks a slot.
type PendingCall struct {
	c  *Client
	id uint64
	ch chan callResult

	mu       sync.Mutex
	settled  bool
	res      callResult
	released bool
}

// release frees the call's in-flight window slot, exactly once.
func (p *PendingCall) release() {
	if !p.released {
		p.released = true
		<-p.c.window
	}
}

// Wait blocks until the reply arrives (or ctx ends) and returns it. A
// context abandonment settles the call with ctx.Err(): the reader drops the
// reply when it arrives. After the first settlement, Wait returns the same
// result to every caller.
func (p *PendingCall) Wait(ctx context.Context) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.settled {
		return p.res.b, p.res.err
	}
	select {
	case r := <-p.ch:
		p.res = r
	case <-ctx.Done():
		// Abandon the call: the reader drops the reply when it arrives.
		p.c.pmu.Lock()
		delete(p.c.pending, p.id)
		p.c.pmu.Unlock()
		p.res = callResult{err: ctx.Err()}
	}
	p.settled = true
	p.release()
	return p.res.b, p.res.err
}

// Call sends one request frame and waits for its reply. payload is only
// read before Call returns; the reply is the caller's to keep. Server-side
// rejections come back as *WireError carrying the gateway's error text.
func (c *Client) Call(ctx context.Context, topic string, payload []byte) ([]byte, error) {
	p, err := c.CallAsync(ctx, topic, payload)
	if err != nil {
		return nil, err
	}
	return p.Wait(ctx)
}

// CallAsync sends one request frame and returns without waiting for the
// reply — the pipelining half of Call. The caller collects the reply with
// Wait; sending a batch of CallAsyncs and then waiting turns N round trips
// into one flight of frames and one flight of acks. payload is only read
// before CallAsync returns. A nil error means the frame has been written
// to the socket. An error means the frame never left (backpressure shed or
// a dead connection) and no PendingCall exists.
func (c *Client) CallAsync(ctx context.Context, topic string, payload []byte) (*PendingCall, error) {
	// Acquire an in-flight slot: the bounded window that keeps one client
	// from queueing unboundedly into a slow server. The slot belongs to the
	// PendingCall until Wait settles it.
	if c.shed {
		select {
		case c.window <- struct{}{}:
		default:
			return nil, ErrBackpressure
		}
	} else {
		select {
		case c.window <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.done:
			return nil, c.err()
		}
	}

	id := c.nextID.Add(1)
	ch := make(chan callResult, 1)
	c.pmu.Lock()
	c.pending[id] = ch
	c.pmu.Unlock()

	c.wmu.Lock()
	c.wbuf = appendFrame(c.wbuf[:0], frameRequest, id, topic, payload)
	_, werr := c.conn.Write(c.wbuf)
	if cap(c.wbuf) > maxWriteBatch {
		c.wbuf = nil // keep no buffer a large frame grew
	}
	c.wmu.Unlock()
	if werr != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		<-c.window
		c.fail(fmt.Errorf("netedge: write: %w", werr))
		return nil, c.err()
	}
	return &PendingCall{c: c, id: id, ch: ch}, nil
}

// OpenSession performs the signed session handshake over this connection,
// asking for codec ("" for the gateway default). The granted token is
// bound to this connection: presenting it over another one fails with
// middleware.ErrSessionBound.
func (c *Client) OpenSession(ctx context.Context, principal string, cert pki.Certificate, key *dcrypto.PrivateKey, codec string) (middleware.SessionGrant, error) {
	hello, err := middleware.NewSessionHello(principal, cert, key)
	if err != nil {
		return middleware.SessionGrant{}, err
	}
	hello.Codec = codec
	b, err := json.Marshal(hello)
	if err != nil {
		return middleware.SessionGrant{}, fmt.Errorf("netedge: encode hello: %w", err)
	}
	reply, err := c.Call(ctx, middleware.TopicSessionOpen, b)
	if err != nil {
		return middleware.SessionGrant{}, err
	}
	var grant middleware.SessionGrant
	if err := json.Unmarshal(reply, &grant); err != nil {
		return middleware.SessionGrant{}, fmt.Errorf("netedge: decode grant: %w", err)
	}
	return grant, nil
}

// Submit encodes req under codec (the one the session grant negotiated)
// and submits it; the reply is the gateway's submission ID.
func (c *Client) Submit(ctx context.Context, req *middleware.Request, codec string) (string, error) {
	b, err := middleware.EncodeWireRequest(req, codec)
	if err != nil {
		return "", fmt.Errorf("netedge: encode request: %w", err)
	}
	reply, err := c.Call(ctx, middleware.TopicSubmit, b)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// SubmitRaw submits pre-encoded wire bytes — the loadgen path, where the
// same encoded frame template is reused across the steady state.
func (c *Client) SubmitRaw(ctx context.Context, wire []byte) (string, error) {
	reply, err := c.Call(ctx, middleware.TopicSubmit, wire)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// PendingSubmit is one submission in flight; Wait returns the gateway's
// submission ID. Like PendingCall, it must be waited on eventually.
type PendingSubmit struct {
	p *PendingCall
}

// Wait blocks until the submission's ack arrives and returns the gateway's
// submission ID.
func (s *PendingSubmit) Wait(ctx context.Context) (string, error) {
	reply, err := s.p.Wait(ctx)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}

// SubmitAsync encodes and sends req without waiting for the ack — the
// client half of batched submission pipelining. Fire a batch of
// SubmitAsyncs (e.g. one gateway-side group), then Wait on each
// PendingSubmit to collect the acks in one flight.
func (c *Client) SubmitAsync(ctx context.Context, req *middleware.Request, codec string) (*PendingSubmit, error) {
	b, err := middleware.EncodeWireRequest(req, codec)
	if err != nil {
		return nil, fmt.Errorf("netedge: encode request: %w", err)
	}
	p, err := c.CallAsync(ctx, middleware.TopicSubmit, b)
	if err != nil {
		return nil, err
	}
	return &PendingSubmit{p: p}, nil
}

// SubmitRawAsync sends pre-encoded wire bytes without waiting for the ack —
// SubmitAsync for the loadgen path's reused frame templates.
func (c *Client) SubmitRawAsync(ctx context.Context, wire []byte) (*PendingSubmit, error) {
	p, err := c.CallAsync(ctx, middleware.TopicSubmit, wire)
	if err != nil {
		return nil, err
	}
	return &PendingSubmit{p: p}, nil
}

// CloseSession ends a session opened over this connection.
func (c *Client) CloseSession(ctx context.Context, token string) error {
	_, err := c.Call(ctx, middleware.TopicSessionClose, []byte(token))
	return err
}

// NotifyRevocation tells the gateway the revocation plane moved.
func (c *Client) NotifyRevocation(ctx context.Context) (middleware.RevocationNotice, error) {
	reply, err := c.Call(ctx, middleware.TopicRevocationNotify, nil)
	if err != nil {
		return middleware.RevocationNotice{}, err
	}
	var notice middleware.RevocationNotice
	if err := json.Unmarshal(reply, &notice); err != nil {
		return middleware.RevocationNotice{}, fmt.Errorf("netedge: decode revocation notice: %w", err)
	}
	return notice, nil
}
