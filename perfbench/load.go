package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/workload"
)

// plaintexts regenerates every op's plaintext from the seed: a seeded
// workload.Trades payload with the op id stamped over its first bytes.
type plaintexts struct {
	base [][]byte
}

func newPlaintexts(seed int64, payload int) (*plaintexts, error) {
	members := []string{"org-buyer", "org-seller"}
	trades, err := workload.New(seed).Trades(members, 1024, payload)
	if err != nil {
		return nil, err
	}
	p := &plaintexts{}
	for _, t := range trades {
		p.base = append(p.base, t.Payload)
	}
	return p, nil
}

func (p *plaintexts) fill(dst []byte, op uint64) []byte {
	dst = append(dst[:0], p.base[op%uint64(len(p.base))]...)
	stampOp(dst, op)
	return dst
}

// handshake is one session.open round trip.
type handshake struct {
	at, dur int64
}

// submitter is one closed-loop client: it sends, waits for the ack, and
// sends again. Its ops have ids idx, idx+S, idx+2S, ... for S submitters.
type submitter struct {
	idx     int
	conn    int
	chIdx   int
	channel string
	send    []int64
	ack     []int64
	buf     []byte

	attempted, failed int
	firstErr          error
	handshakes        []handshake
	spans             []clientSpan // traced run only
}

// runner drives a stack with the workload's submitters until they have
// issued the sub-run's transactions.
type runner struct {
	s     *stack
	plain *plaintexts
	subs  []*submitter
	// claimed counts the transactions the submitters have claimed; the
	// one that claims the last warm-up transaction closes warmed.
	claimed     atomic.Int64
	warm, limit int64
	warmed      chan struct{}
	subsWG      sync.WaitGroup
	stop        atomic.Bool // stops the leader killer
	killWG      sync.WaitGroup
	kills       []kill
	// killErr is a failed fault injection; it fails the run.
	killErr error
}

// kill is one leader crash: the channel and when CrashLeader returned.
type kill struct {
	channel string
	at      int64
}

func newRunner(s *stack, plain *plaintexts) *runner {
	r := &runner{s: s, plain: plain, warm: int64(s.spec.warmupOps()), limit: int64(s.spec.subRunOps()), warmed: make(chan struct{})}
	for i := 0; i < s.spec.submitters(); i++ {
		r.subs = append(r.subs, &submitter{idx: i, conn: i % numConns, chIdx: i % numChannels, channel: s.channels[i%numChannels]})
	}
	return r
}

// start launches the submitters (and the leader killer under failover).
func (r *runner) start(ctx context.Context) {
	for _, sub := range r.subs {
		r.subsWG.Add(1)
		go func(sub *submitter) {
			defer r.subsWG.Done()
			if r.s.spec.churn {
				r.churnLoop(ctx, sub)
			} else {
				r.heldLoop(ctx, sub)
			}
		}(sub)
	}
	if r.s.spec.killEvery > 0 {
		r.killWG.Add(1)
		go func() {
			defer r.killWG.Done()
			r.killLoop()
		}()
	}
}

// claim reserves the next transaction of the sub-run; false once all are
// claimed.
func (r *runner) claim() bool {
	n := r.claimed.Add(1)
	if n == r.warm {
		close(r.warmed)
	}
	return n <= r.limit
}

// wait returns once every submitter has issued its last transaction and
// had it acknowledged.
func (r *runner) wait() { r.subsWG.Wait() }

// finish stops the leader killer and releases any partially filled batch
// group.
func (r *runner) finish(ctx context.Context) error {
	r.stop.Store(true)
	r.killWG.Wait()
	if err := r.s.gw.Flush(ctx); err != nil {
		return fmt.Errorf("gateway flush: %w", err)
	}
	return r.killErr
}

func (r *runner) heldLoop(ctx context.Context, sub *submitter) {
	sess := r.s.sessions[sub.idx]
	pi := r.s.heldPrincipal(sub.idx)
	for r.claim() {
		r.submit(ctx, sub, sess, pi)
	}
}

// churnLoop: open a session, submit 4 transactions, close it, and move to
// the submitter's next principal. Submitter i owns principals i, i+S, ...
func (r *runner) churnLoop(ctx context.Context, sub *submitter) {
	S := len(r.subs)
	for k := 0; r.claim(); k++ {
		pi := (sub.idx + k*S) % len(r.s.principals)
		t0 := mono()
		sub.attempted++
		sess, err := r.s.open(ctx, sub.conn, pi)
		if err != nil {
			sub.fail(err)
			continue
		}
		sub.handshakes = append(sub.handshakes, handshake{at: t0, dur: mono() - t0})
		for i := 0; i < 4 && (i == 0 || r.claim()); i++ {
			r.submit(ctx, sub, sess, pi)
		}
		sub.attempted++
		if err := r.s.conns[sub.conn].CloseSession(ctx, sess.token); err != nil {
			sub.fail(err)
		}
	}
}

func (sub *submitter) fail(err error) {
	sub.failed++
	if sub.firstErr == nil {
		sub.firstErr = err
	}
}

// submit sends one fresh request: the op id is stamped into the seeded
// payload, then the request is MACed and encoded at send time.
func (r *runner) submit(ctx context.Context, sub *submitter, sess session, pi int) {
	op := uint64(sub.idx + len(sub.send)*len(r.subs))
	sub.attempted++
	sub.buf = r.plain.fill(sub.buf, op)
	req := middleware.Request{Channel: sub.channel, Principal: r.s.principals[pi].name, Payload: sub.buf, SessionToken: sess.token}
	tr := r.s.tr.active()
	t0 := mono()
	middleware.MACRequest(&req, sess.mac)
	wire, err := middleware.EncodeWireRequest(&req, r.s.spec.codec)
	t1 := mono()
	sub.send = append(sub.send, t1)
	sub.ack = append(sub.ack, 0)
	if err != nil {
		sub.fail(err)
		return
	}
	if tr != nil {
		tr.inflight[pi*numChannels+sub.chIdx].Store(op + 1)
	}
	ps, err := r.s.conns[sub.conn].SubmitRawAsync(ctx, wire)
	if err == nil {
		_, err = ps.Wait(ctx)
	}
	t2 := mono()
	if err != nil {
		sub.fail(err)
		return
	}
	sub.ack[len(sub.ack)-1] = t2
	if tr != nil {
		sub.spans = append(sub.spans, clientSpan{op: op, id: req.ID(), prep: t1 - t0, start: t1, rtt: t2 - t1})
	}
}

// killLoop crashes one channel's ordering leader per interval, round
// robin over channels, waits for that channel's next commit, then
// restarts the dead operator.
func (r *runner) killLoop() {
	next := time.Now()
	for k := 0; !r.stop.Load(); k++ {
		next = next.Add(r.s.spec.killEvery)
		time.Sleep(time.Until(next))
		if r.stop.Load() {
			return
		}
		ch := r.s.channels[k%numChannels]
		rs := r.s.replicated[r.s.sharded.ShardFor(ch)]
		op, err := rs.CrashLeader(ch)
		at := mono()
		if err != nil {
			r.killErr = fmt.Errorf("crash leader of %s: %w", ch, err)
			return
		}
		r.kills = append(r.kills, kill{channel: ch, at: at})
		rec := r.s.chains[ch]
		for rec.last.Load() <= at && !r.stop.Load() {
			time.Sleep(100 * time.Microsecond)
		}
		c, err := rs.Cluster(ch)
		if err == nil {
			err = c.Restart(op)
		}
		if err != nil {
			r.killErr = fmt.Errorf("restart %s on %s: %w", op, ch, err)
			return
		}
	}
}

// windowGaps is kill -> first commit on the killed channel for every kill
// in the window.
func (r *runner) windowGaps(w0, w1 int64) []int64 {
	var gaps []int64
	for _, ch := range r.s.channels {
		var kills []int64
		for _, k := range r.kills {
			if k.channel == ch && k.at >= w0 && k.at < w1 {
				kills = append(kills, k.at)
			}
		}
		rec := r.s.chains[ch]
		gaps = append(gaps, killGaps(kills, rec.at)...)
	}
	return gaps
}

func countKills(kills []kill, w0, w1 int64) int {
	n := 0
	for _, k := range kills {
		if k.at >= w0 && k.at < w1 {
			n++
		}
	}
	return n
}

// opTable gathers every submitter's ops into one table indexed by op id.
func (r *runner) opTable() opTable {
	S := len(r.subs)
	maxK := 0
	for _, sub := range r.subs {
		if len(sub.send) > maxK {
			maxK = len(sub.send)
		}
	}
	t := opTable{send: make([]int64, maxK*S), ack: make([]int64, maxK*S)}
	for _, sub := range r.subs {
		for k := range sub.send {
			t.send[sub.idx+k*S] = sub.send[k]
			t.ack[sub.idx+k*S] = sub.ack[k]
		}
	}
	return t
}

func (r *runner) counts() (attempted, failed int, firstErr error) {
	for _, sub := range r.subs {
		attempted += sub.attempted
		failed += sub.failed
		if firstErr == nil {
			firstErr = sub.firstErr
		}
	}
	return attempted, failed, firstErr
}

// chainViews snapshots the recorded chains in channel order.
func (s *stack) chainViews() []chainView {
	out := make([]chainView, 0, len(s.channels))
	for _, ch := range s.channels {
		rec := s.chains[ch]
		rec.mu.Lock()
		out = append(out, chainView{channel: ch, blocks: rec.blocks, at: rec.at})
		rec.mu.Unlock()
	}
	return out
}

// liveSampler tracks the peak of a gauge, sampled every 5 ms between on
// and off.
type liveSampler struct {
	on   atomic.Bool
	peak atomic.Int64
	done chan struct{}
	wg   sync.WaitGroup
}

func startLiveSampler(gauge func() int) *liveSampler {
	l := &liveSampler{done: make(chan struct{})}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-l.done:
				return
			case <-t.C:
			}
			if n := int64(gauge()); l.on.Load() && n > l.peak.Load() {
				l.peak.Store(n)
			}
		}
	}()
	return l
}

func (l *liveSampler) close() {
	close(l.done)
	l.wg.Wait()
}

// liveHeap forces a collection and returns the live heap it marked.
func liveHeap() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// killGaps returns, for each kill time, the distance to the first commit
// after it; kills with no later commit are skipped.
func killGaps(kills, commits []int64) []int64 {
	gaps := make([]int64, 0, len(kills))
	j := 0
	for _, k := range kills {
		for j < len(commits) && commits[j] <= k {
			j++
		}
		if j < len(commits) {
			gaps = append(gaps, commits[j]-k)
		}
	}
	return gaps
}
