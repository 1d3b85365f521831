package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
)

// tracer times calls into each layer's public functions from outside:
// the client call (clientSpan), the netedge.Handler the edge dispatches to
// (serverSpan), and each shard ordering.Backend handed to
// ordering.NewSharded (orderSpan). Spans share the op id of the request
// they belong to. Recording is off until enabled.
type tracer struct {
	enabled atomic.Bool
	// inflight[p*numChannels+c] is 1 + the op in flight from principal p
	// on channel c. No two submitters share a (principal, channel) pair
	// and each has one op in flight, so an ordering submit maps to its op
	// by creator and channel.
	inflight  []atomic.Uint64
	principal map[string]int
	channel   map[string]int

	conns sync.Map // transport id -> *serverBuf

	mu     sync.Mutex
	orders []orderSpan
}

type clientSpan struct {
	op    uint64
	id    string // request id the gateway acks with
	prep  int64  // MACRequest + EncodeWireRequest
	start int64
	rtt   int64 // SubmitRawAsync -> Wait
}

type serverSpan struct {
	id         string // request id the handler replied with
	start, dur int64
}

type orderSpan struct {
	op         uint64 // 1 + op id; 0 for a group or an unmatched submit
	start, dur int64
}

// serverBuf is one connection's handler spans; the edge runs a
// connection's handler calls on one goroutine.
type serverBuf struct {
	submits []serverSpan
	opens   []int64
}

func newTracer(sp spec) *tracer {
	t := &tracer{
		inflight:  make([]atomic.Uint64, sp.principals*numChannels),
		principal: make(map[string]int),
		channel:   make(map[string]int),
	}
	for i := 0; i < sp.principals; i++ {
		t.principal[principalName(i)] = i
	}
	for i := 0; i < numChannels; i++ {
		t.channel[channelName(i)] = i
	}
	return t
}

// active returns the tracer while it records, nil otherwise.
func (t *tracer) active() *tracer {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	return t
}

func (t *tracer) buf(transportID string) *serverBuf {
	if b, ok := t.conns.Load(transportID); ok {
		return b.(*serverBuf)
	}
	b, _ := t.conns.LoadOrStore(transportID, &serverBuf{})
	return b.(*serverBuf)
}

// wrapHandler times the handler the edge dispatches to. Session opens are
// timed even while recording is off, so set-up handshakes count.
func (t *tracer) wrapHandler(next netedge.Handler) netedge.Handler {
	return netedge.HandlerFunc(func(ctx context.Context, topic string, payload []byte, transportID string) ([]byte, error) {
		on := t.enabled.Load()
		if !on && topic != middleware.TopicSessionOpen {
			return next.ServeWire(ctx, topic, payload, transportID)
		}
		t0 := mono()
		reply, err := next.ServeWire(ctx, topic, payload, transportID)
		d := mono() - t0
		if err == nil {
			b := t.buf(transportID)
			switch topic {
			case middleware.TopicSubmit:
				b.submits = append(b.submits, serverSpan{id: string(reply), start: t0, dur: d})
			case middleware.TopicSessionOpen:
				b.opens = append(b.opens, d)
			}
		}
		return reply, err
	})
}

// timedBackend decorates one ordering shard; its Submit covers block cut
// and delivery, which run synchronously at batch size 1.
type timedBackend struct {
	ordering.Backend
	tr *tracer
}

func (b *timedBackend) Submit(tx ledger.Transaction) error {
	if !b.tr.enabled.Load() {
		return b.Backend.Submit(tx)
	}
	t0 := mono()
	err := b.Backend.Submit(tx)
	d := mono() - t0
	var op uint64
	if p, ok := b.tr.principal[tx.Creator]; ok {
		op = b.tr.inflight[p*numChannels+b.tr.channel[tx.Channel]].Load()
	}
	b.tr.mu.Lock()
	b.tr.orders = append(b.tr.orders, orderSpan{op: op, start: t0, dur: d})
	b.tr.mu.Unlock()
	return err
}

// collect gathers the server-side spans.
func (t *tracer) collect() (submits []serverSpan, opens []int64) {
	t.conns.Range(func(_, v any) bool {
		b := v.(*serverBuf)
		submits = append(submits, b.submits...)
		opens = append(opens, b.opens...)
		return true
	})
	return submits, opens
}

// writeSpans writes the first maxOps traced ops' spans, one per line:
// op id, layer, start and duration in ns.
func writeSpans(path string, clients []clientSpan, servers map[string]serverSpan, orders []orderSpan, maxOps int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tlayer\tstart_ns\tdur_ns")
	sort.Slice(clients, func(i, j int) bool { return clients[i].start < clients[j].start })
	keep := make(map[uint64]bool)
	for i, c := range clients {
		if i >= maxOps {
			break
		}
		keep[c.op] = true
		fmt.Fprintf(w, "%d\tclient.prep\t%d\t%d\n", c.op, c.start-c.prep, c.prep)
		fmt.Fprintf(w, "%d\tnetedge.rtt\t%d\t%d\n", c.op, c.start, c.rtt)
		if s, ok := servers[c.id]; ok {
			fmt.Fprintf(w, "%d\tmiddleware.servewire\t%d\t%d\n", c.op, s.start, s.dur)
		}
	}
	for _, o := range orders {
		if o.op != 0 && keep[o.op-1] {
			fmt.Fprintf(w, "%d\tordering.submit\t%d\t%d\n", o.op-1, o.start, o.dur)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
