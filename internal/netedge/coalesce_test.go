package netedge

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedConn counts the Write calls made on a connection and holds the
// first one until gate is closed, so a test can stack frames up behind a
// write in flight. beforeRead, when set, runs at the start of every Read.
type gatedConn struct {
	net.Conn
	gate       <-chan struct{}
	beforeRead func()

	mu     sync.Mutex
	writes [][]byte // what each Write call carried, aliasing the caller's slice
}

func newGatedConn(c net.Conn, gate <-chan struct{}) *gatedConn {
	return &gatedConn{Conn: c, gate: gate}
}

func (g *gatedConn) Write(b []byte) (int, error) {
	g.mu.Lock()
	g.writes = append(g.writes, b)
	first := len(g.writes) == 1
	g.mu.Unlock()
	if first {
		<-g.gate
	}
	return g.Conn.Write(b)
}

func (g *gatedConn) Read(b []byte) (int, error) {
	if g.beforeRead != nil {
		g.beforeRead()
	}
	return g.Conn.Read(b)
}

// writeLens reports the length of every Write so far.
func (g *gatedConn) writeLens() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	lens := make([]int, len(g.writes))
	for i, w := range g.writes {
		lens[i] = len(w)
	}
	return lens
}

// wrapListener hands every accepted connection through wrap.
type wrapListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l *wrapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(c), nil
}

// echoHandler replies with the request payload.
var echoHandler = HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
	return append([]byte(nil), payload...), nil
})

// TestEdgeServerCoalescesQueuedReplies holds the server's first reply
// write until the handler has served a pipelined burst of 8 requests, so
// the other 7 replies queue behind it: the writer must send them in one
// more write, not seven, and every reply must arrive intact and in order.
func TestEdgeServerCoalescesQueuedReplies(t *testing.T) {
	const n = 8
	var served atomic.Int64
	h := HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		served.Add(1)
		return append([]byte("re:"), payload...), nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	var openGate sync.Once
	accepted := make(chan *gatedConn, 1)
	srv := Serve(&wrapListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
		g := newGatedConn(c, gate)
		// The reader asks the socket for more bytes only after it has
		// served and queued the reply of every frame it already holds, so
		// the gate opens with all 8 replies queued.
		g.beforeRead = func() {
			if served.Load() == n {
				openGate.Do(func() { close(gate) })
			}
		}
		accepted <- g
		return g
	}}, h)
	defer srv.Close()
	defer openGate.Do(func() { close(gate) })

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var burst []byte
	for i := 0; i < n; i++ {
		burst = appendFrame(burst, frameRequest, uint64(i+1), "t", []byte(fmt.Sprint(i)))
	}
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	var buf []byte
	for i := 0; i < n; i++ {
		f, nbuf, err := readFrame(br, buf, DefaultMaxFrame)
		buf = nbuf
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if want := fmt.Sprintf("re:%d", i); f.kind != frameOK || f.id != uint64(i+1) || string(f.body) != want {
			t.Fatalf("reply %d: kind 0x%02x id %d body %q, want ok id %d body %q", i, f.kind, f.id, f.body, i+1, want)
		}
	}
	g := <-accepted
	if lens := g.writeLens(); len(lens) > 2 {
		t.Fatalf("server made %d writes for %d queued replies (lengths %v), want at most 2", len(lens), n, lens)
	}
}

// TestEdgeWriteBuffersBounded pipelines 16 requests and replies of 256 KiB
// each, then one small call, and checks that the client keeps no write
// buffer grown by the burst (what it retains is at most maxWriteBatch plus
// the small frame) and that the server writes each reply larger than
// maxWriteBatch alone, from its own buffer, and batches no more than
// maxWriteBatch bytes otherwise.
func TestEdgeWriteBuffersBounded(t *testing.T) {
	const n, size = 16, 256 << 10
	small := appendFrame(nil, frameRequest, 1<<20, "t", []byte("small"))
	bound := maxWriteBatch + len(small)

	t.Run("end-to-end", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		accepted := make(chan *gatedConn, 1)
		open := make(chan struct{})
		close(open)
		srv := Serve(&wrapListener{Listener: ln, wrap: func(c net.Conn) net.Conn {
			g := newGatedConn(c, open)
			accepted <- g
			return g
		}}, echoHandler)
		defer srv.Close()
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ctx := context.Background()
		ps := make([]*PendingCall, n)
		for i := range ps {
			payload := bytes.Repeat([]byte{byte(i)}, size)
			if ps[i], err = c.CallAsync(ctx, "t", payload); err != nil {
				t.Fatalf("call %d: %v", i, err)
			}
		}
		for i, p := range ps {
			b, err := p.Wait(ctx)
			if err != nil {
				t.Fatalf("wait %d: %v", i, err)
			}
			if len(b) != size || b[0] != byte(i) || b[size-1] != byte(i) {
				t.Fatalf("reply %d: %d bytes, want %d of 0x%02x", i, len(b), size, i)
			}
		}
		if b, err := c.Call(ctx, "t", []byte("small")); err != nil || string(b) != "small" {
			t.Fatalf("small call: %q, %v", b, err)
		}
		c.wmu.Lock()
		wcap := cap(c.wbuf)
		c.wmu.Unlock()
		if wcap > bound {
			t.Fatalf("client retains a write buffer of capacity %d, want at most %d", wcap, bound)
		}
		for _, l := range (<-accepted).writeLens() {
			if l > size+16 {
				t.Fatalf("server wrote %d bytes in one write: large replies were batched together", l)
			}
		}
	})

	t.Run("server-writer", func(t *testing.T) {
		// Drive one connection's writer directly over a queue already
		// holding the burst, interleaved with small replies, so the
		// batches it forms are deterministic.
		s := &Server{opt: options{queueDepth: 4 * n}}
		rec := &recordConn{}
		ec := &edgeConn{c: rec, out: make(chan *[]byte, 4*n)}
		var want []byte
		var large [][]byte
		queue := func(body []byte) {
			bp := framePool.Get().(*[]byte)
			*bp = appendFrame((*bp)[:0], frameOK, uint64(len(want)), "", body)
			want = append(want, *bp...)
			if len(*bp) > maxWriteBatch {
				large = append(large, *bp)
			}
			ec.out <- bp
		}
		for i := 0; i < n; i++ {
			queue(bytes.Repeat([]byte{byte(i)}, size))
			queue([]byte("small"))
		}
		close(ec.out)
		ec.writeLoop(s)
		if !bytes.Equal(rec.buf.Bytes(), want) {
			t.Fatalf("writer sent %d bytes, want the %d queued, in order", rec.buf.Len(), len(want))
		}
		for _, l := range large {
			alone := false
			for _, w := range rec.writes {
				alone = alone || (len(w) == len(l) && &w[0] == &l[0])
			}
			if !alone {
				t.Fatalf("a %d-byte reply was not written alone from its own buffer", len(l))
			}
		}
		for _, w := range rec.writes {
			if len(w) > maxWriteBatch && len(w) > size+16 {
				t.Fatalf("writer batched %d bytes into one write, want at most %d unless one reply is larger", len(w), maxWriteBatch)
			}
		}
	})
}

// recordConn is a net.Conn that records every Write; the writer test needs
// nothing else of it.
type recordConn struct {
	net.Conn
	buf    bytes.Buffer
	writes [][]byte
}

func (r *recordConn) Write(b []byte) (int, error) {
	r.writes = append(r.writes, b)
	return r.buf.Write(b)
}
