package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
)

// A run is a series of sub-runs, each on a freshly built stack: a warm-up,
// then a timed window, each a fixed number of transactions (see spec);
// then the sub-run's commits are verified and the stack is torn down.
// Sub-runs are added until their windows add up to --seconds. Fresh stacks
// bound the memory a run holds (every committed block is kept until it is
// verified) and give set-up several samples; a fixed number of
// transactions per sub-run makes the heap reading independent of
// throughput; latency quantiles pool the sub-runs' samples.

// maxSubRuns bounds a run whose windows are much shorter than expected.
const maxSubRuns = 40

// snapshot is the counters a traced sub-run differences over its window.
type snapshot struct {
	at    int64
	gw    middleware.GatewayStats
	edge  netedge.EdgeStats
	mem   runtime.MemStats
	cpuNs int64
}

func (s *stack) snapshot() snapshot {
	sn := snapshot{gw: s.gw.Stats(), edge: s.edge.Stats(), cpuNs: cpuNanos()}
	runtime.ReadMemStats(&sn.mem)
	sn.at = mono()
	return sn
}

// subRun is what one sub-run leaves behind once its stack is gone.
type subRun struct {
	traced            bool
	setup             float64 // seconds
	span              float64 // window seconds
	committed         int     // ops committed in the window
	latencies         []int64 // send -> commit, ops sent in the window
	handshakes        []int64 // session.open round trips in the window
	gaps              []int64 // leader kill -> first commit, kills in the window
	kills             int
	heapLive          uint64
	livePeak          int64
	attempted, failed int
	vr                verifyResult
	frameErrs, sheds  uint64
	auditShed         uint64

	// Traced sub-runs only.
	before, after     snapshot
	clients           []clientSpan
	submits           []serverSpan
	opens             []int64
	orders            []orderSpan
	blocks, txs       int // recorded in the window
	routed, maxRouted uint64
	failovers         uint64
}

// runSub builds a stack, runs the sub-run's transactions, verifies what it
// committed, reads the heap, and tears the stack down.
func runSub(ctx context.Context, sp spec, plain *plaintexts, traced bool) (*subRun, error) {
	var tr *tracer
	if traced {
		tr = newTracer(sp)
	}
	t0 := time.Now()
	s, err := buildStack(ctx, sp, tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	out := &subRun{traced: traced, setup: time.Since(t0).Seconds()}
	checkErr := out.load(ctx, s, plain, tr)
	// The recorded blocks are the benchmark's, kept only for verification:
	// with them released, the live heap is the program's own after the
	// sub-run's fixed number of transactions. Its state only grows under
	// load (logs, sessions), so this is its peak.
	s.dropRecords()
	out.heapLive = liveHeap()
	return out, checkErr
}

// load runs the warm-up and the window, stops the load, and verifies
// what the stack committed.
func (out *subRun) load(ctx context.Context, s *stack, plain *plaintexts, tr *tracer) error {
	r := newRunner(s, plain)
	sampler := startLiveSampler(func() int { return s.gw.Sessions().Len() })
	defer sampler.close()
	r.start(ctx)
	<-r.warmed
	// Every window opens right after a completed collection, so the
	// collector's phase is the same in every sub-run.
	runtime.GC()
	if tr != nil {
		out.before = s.snapshot()
		tr.enabled.Store(true)
	}
	w0 := mono()
	sampler.on.Store(true)
	r.wait()
	sampler.on.Store(false)
	w1 := mono()
	if tr != nil {
		tr.enabled.Store(false)
		out.after = s.snapshot()
	}
	runErr := r.finish(ctx)
	out.livePeak = sampler.peak.Load()
	out.attempted, out.failed, _ = r.counts()

	for _, sub := range r.subs {
		for _, h := range sub.handshakes {
			if h.at >= w0 && h.at < w1 {
				out.handshakes = append(out.handshakes, h.dur)
			}
		}
	}
	if s.spec.replicas > 0 {
		out.gaps = r.windowGaps(w0, w1)
		out.kills = countKills(r.kills, w0, w1)
	}
	ops := r.opTable()
	vs := s.verifySpec(plain)
	out.frameErrs, out.sheds, out.auditShed = vs.frameErrors, vs.sheds, vs.auditShed
	vr, verr := verify(s.chainViews(), ops, vs)
	out.vr = vr
	out.vr.commitAt = nil // the window figures below are all it is needed for
	out.span = float64(w1-w0) / 1e9
	for op, sent := range ops.send {
		c := vr.commitAt[op]
		if c >= w0 && c < w1 {
			out.committed++
		}
		if sent >= w0 && sent < w1 && c != 0 {
			out.latencies = append(out.latencies, c-sent)
		}
	}
	if tr != nil {
		for _, sub := range r.subs {
			out.clients = append(out.clients, sub.spans...)
		}
		out.submits, out.opens = tr.collect()
		out.orders = tr.orders
		for _, cv := range s.chainViews() {
			for i, b := range cv.blocks {
				if cv.at[i] >= w0 && cv.at[i] < w1 {
					out.blocks++
					out.txs += len(b.Txs)
				}
			}
		}
		for _, sh := range s.sharded.Stats() {
			out.routed += sh.RoutedTxs
			out.maxRouted = max(out.maxRouted, sh.RoutedTxs)
		}
		for _, rs := range s.replicated {
			out.failovers += rs.Failovers()
		}
	}
	return firstErr(runErr, failedOps(r), verr)
}

// runSubs runs sub-runs until their windows add up to --seconds; in the
// traced run they alternate untraced and traced, in pairs.
func runSubs(sp spec, o options, rep *report) ([]*subRun, []float64, error) {
	ctx := context.Background()
	plain, err := newPlaintexts(o.seed, sp.payload)
	if err != nil {
		return nil, nil, err
	}
	var subs []*subRun
	var setups []float64
	var checkErr error
	windows := 0.0
	for i := 0; i < maxSubRuns && (i < 2 || windows < float64(o.seconds) || (o.trace && i%2 == 1)); i++ {
		tr := o.trace && i%2 == 1
		ss, err := extraSetups(sp)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, ss...)
		runtime.GC()
		sr, err := runSub(ctx, sp, plain, tr)
		if sr == nil {
			return nil, nil, err
		}
		if checkErr == nil && err != nil {
			checkErr = fmt.Errorf("sub-run %d: %w", i, err)
		}
		windows += sr.span
		rep.attempted += sr.attempted
		rep.failed += sr.failed
		rep.note("sub-run %d (traced=%v): setup %.4fs, %d committed in %.2fs, %d latency samples (p50 %.1f p99 %.1f us), live heap %.1f MB; verify: %d blocks, %d ledger txs, %d ops committed, %d payloads opened through the public open path",
			i, tr, sr.setup, sr.committed, sr.span, len(sr.latencies), quantile(sr.latencies, 0.5)/1e3, quantile(sr.latencies, 0.99)/1e3, float64(sr.heapLive)/1e6,
			sr.vr.blocks, sr.vr.txs, sr.vr.members, sr.vr.sampled)
		subs = append(subs, sr)
	}
	return subs, setups, checkErr
}

// gated are the end-to-end metrics BENCHMARK.json gates on: the result
// line of an untraced run carries exactly these. The other end-to-end
// figures are printed on every run and reported by the traced run: the
// handshake and the failover gap exist only on session-churn and failover
// (0 elsewhere), and BENCHMARK.json gates a metric on every workload.
var gated = []string{"throughput_tps", "latency_p50_us", "setup_s", "heap_peak_mb"}

// setupRuns is how many stacks a run builds and tears down before each
// sub-run, only to time them: set-up takes milliseconds, so setup_s, the
// median over these and the sub-runs' set-ups, needs many samples, and
// taking them throughout the run samples the machine as the windows do.
const setupRuns = 8

func extraSetups(sp spec) ([]float64, error) {
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		s, err := buildStack(context.Background(), sp, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		s.close()
	}
	return setups, nil
}

// run is one benchmark run: a series of sub-runs, alternating untraced
// and traced in the traced run. The end-to-end figures come from the
// untraced sub-runs.
func run(sp spec, o options) (*report, error) {
	rep := &report{metrics: make(map[string]metric)}
	subs, setups, checkErr := runSubs(sp, o, rep)
	if subs == nil {
		return nil, checkErr
	}
	e2e := endToEnd(sp, setups, subs, rep)
	e2e["error_rate"] = metric{errorRate(rep.attempted, rep.failed), "ratio"}
	if !o.trace {
		for name, m := range e2e {
			rep.show(name, m)
		}
		for _, name := range gated {
			rep.metrics[name] = e2e[name]
		}
		return rep, checkErr
	}
	for _, name := range []string{"latency_p99_us", "handshake_p50_us", "handshake_p99_us", "failover_gap_p50_us", "error_rate"} {
		rep.metrics[name] = e2e[name]
	}
	return rep, firstErr(checkErr, layers(sp, o, subs, rep))
}

// endToEnd computes every end-to-end figure from the untraced sub-runs.
func endToEnd(sp spec, setups []float64, subs []*subRun, rep *report) map[string]metric {
	var committed int
	var span float64
	var lat, hs, gaps []int64
	var heaps []float64
	kills := 0
	for _, sr := range subs {
		setups = append(setups, sr.setup)
		if sr.traced {
			continue
		}
		committed += sr.committed
		span += sr.span
		lat = append(lat, sr.latencies...)
		hs = append(hs, sr.handshakes...)
		gaps = append(gaps, sr.gaps...)
		kills += sr.kills
		heaps = append(heaps, float64(sr.heapLive)/1e6)
	}
	if sp.churn {
		rep.note("handshake: %d opens in the windows", len(hs))
	}
	if sp.replicas > 0 {
		rep.note("failover gap: %d kills in the windows, %d with a commit after", kills, len(gaps))
	}
	rep.note("latency: %d samples; setup_s samples %v", len(lat), setups)
	return map[string]metric{
		"throughput_tps":      {fdiv(float64(committed), span), "tx/s"},
		"latency_p50_us":      {quantile(lat, 0.50) / 1e3, "us"},
		"latency_p99_us":      {quantile(lat, 0.99) / 1e3, "us"},
		"handshake_p50_us":    {quantile(hs, 0.50) / 1e3, "us"},
		"handshake_p99_us":    {quantile(hs, 0.99) / 1e3, "us"},
		"failover_gap_p50_us": {quantile(gaps, 0.50) / 1e3, "us"},
		"setup_s":             {median(setups), "s"},
		"heap_peak_mb":        {median(heaps), "MB"},
	}
}

// layers computes the per-layer metrics: they pool the traced sub-runs,
// and trace.overhead_pct compares the throughput of the traced sub-runs
// with the untraced ones. On edge-mac it checks that the self times of the
// layers a request crosses before its commit (the edge's inbound path,
// decode, the stages, ordering) add up to the traced mean latency, send
// to commit, which the benchmark's own subscriber measures.
func layers(sp spec, o options, subs []*subRun, rep *report) error {
	var tps [2]struct{ n, span float64 }
	var opens, latencies, rtts, selfs, ins, preps, servewire, ordering []int64
	var nClients, nSubmits int
	var first *subRun // the first traced sub-run: its spans are written out
	var stageExcl, stageCalls = map[string]float64{}, map[string]float64{}
	var firstNanos, firstCalls, stageErrors float64
	var bytesIO, edgeReqs, groups, groupTxs, auditShed, frameErrs, sheds float64
	var cpuNs, mallocs, gcs, committed float64
	var blocks, txs int
	var routed, maxRouted, failovers uint64
	var livePeak int64
	for _, sr := range subs {
		k := 0
		if sr.traced {
			k = 1
		}
		tps[k].n += float64(sr.committed)
		tps[k].span += sr.span
		opens = append(opens, sr.opens...)
		livePeak = max(livePeak, sr.livePeak)
		frameErrs += float64(sr.frameErrs)
		sheds += float64(sr.sheds)
		auditShed += float64(sr.auditShed)
		if !sr.traced {
			continue
		}
		if first == nil {
			first = sr
		}
		latencies = append(latencies, sr.latencies...)
		// Request ids repeat across sub-runs (the same seed gives the same
		// requests), so spans join within their sub-run.
		servers := sr.serverIndex()
		for _, c := range sr.clients {
			rtts = append(rtts, c.rtt)
			preps = append(preps, c.prep)
			if sv, ok := servers[c.id]; ok {
				selfs = append(selfs, c.rtt-sv.dur)
				ins = append(ins, sv.start-c.start)
			}
		}
		for _, sv := range sr.submits {
			servewire = append(servewire, sv.dur)
		}
		for _, span := range sr.orders {
			ordering = append(ordering, span.dur)
		}
		nClients += len(sr.clients)
		nSubmits += len(sr.submits)
		b, a := sr.before, sr.after
		for i, st := range a.gw.Stages {
			prev := b.gw.Stages[i]
			stageExcl[st.Name] += float64(st.ExclusiveNanos - prev.ExclusiveNanos)
			stageCalls[st.Name] += float64(st.Calls - prev.Calls)
			stageErrors += float64(st.Errors - prev.Errors)
			if i == 0 {
				firstNanos += float64(st.Nanos - prev.Nanos)
				firstCalls += float64(st.Calls - prev.Calls)
			}
		}
		bytesIO += float64(a.edge.BytesIn + a.edge.BytesOut - b.edge.BytesIn - b.edge.BytesOut)
		edgeReqs += float64(a.edge.Requests - b.edge.Requests)
		groups += float64(a.gw.BatchGroupsSealed - b.gw.BatchGroupsSealed)
		groupTxs += float64(a.gw.BatchGroupTxs - b.gw.BatchGroupTxs)
		cpuNs += float64(a.cpuNs - b.cpuNs)
		mallocs += float64(a.mem.Mallocs - b.mem.Mallocs)
		gcs += float64(a.mem.NumGC - b.mem.NumGC)
		committed += float64(sr.committed)
		blocks += sr.blocks
		txs += sr.txs
		routed += sr.routed
		maxRouted += sr.maxRouted
		failovers += sr.failovers
	}

	stageSelf := map[string]float64{}
	for name, n := range stageCalls {
		if n > 0 {
			stageSelf[name] = stageExcl[name] / n / 1e3
		}
	}
	inSelf, latMean := mean(ins)/1e3, mean(latencies)/1e3
	decodeSelf := mean(servewire)/1e3 - fdiv(firstNanos, firstCalls)/1e3
	layerSum := inSelf + decodeSelf
	for _, v := range stageSelf {
		layerSum += v
	}
	untracedTPS, tracedTPS := fdiv(tps[0].n, tps[0].span), fdiv(tps[1].n, tps[1].span)

	rep.set("netedge.rtt_p50_us", quantile(rtts, 0.50)/1e3, "us")
	rep.set("netedge.self_p50_us", quantile(selfs, 0.50)/1e3, "us")
	rep.set("netedge.in_self_us", inSelf, "us")
	rep.set("netedge.bytes_per_tx", fdiv(bytesIO, edgeReqs), "B")
	rep.set("netedge.frame_errors", frameErrs, "count")
	rep.set("netedge.sheds", sheds, "count")
	rep.set("middleware.servewire_p50_us", quantile(servewire, 0.50)/1e3, "us")
	rep.set("middleware.servewire_p99_us", quantile(servewire, 0.99)/1e3, "us")
	rep.set("middleware.decode_self_us", decodeSelf, "us")
	for _, name := range []string{"session", "authn", "encrypt", "audit", "batch"} {
		rep.set("middleware.stage."+name+".self_us", stageSelf[name], "us")
	}
	rep.set("middleware.stage_errors", stageErrors, "count")
	rep.set("middleware.batch.txs_per_group", fdiv(groupTxs, groups), "tx")
	rep.set("middleware.audit.shed", auditShed, "count")
	rep.set("middleware.session.open_p50_us", quantile(opens, 0.50)/1e3, "us")
	rep.set("middleware.session.live_peak", float64(livePeak), "count")
	rep.set("ordering.submit_p50_us", quantile(ordering, 0.50)/1e3, "us")
	rep.set("ordering.submit_p99_us", quantile(ordering, 0.99)/1e3, "us")
	rep.set("ordering.txs_per_block", fdiv(float64(txs), float64(blocks)), "tx")
	rep.set("ordering.shard_max_share", fdiv(float64(maxRouted), float64(routed)), "ratio")
	rep.set("ordering.failovers", float64(failovers), "count")
	rep.set("client.prep_us", mean(preps)/1e3, "us")
	rep.set("runtime.cpu_us_per_tx", fdiv(cpuNs/1e3, committed), "us")
	rep.set("runtime.allocs_per_tx", fdiv(mallocs, committed), "count")
	rep.set("runtime.gc_cycles", gcs, "count")
	rep.set("trace.overhead_pct", 100*fdiv(untracedTPS-tracedTPS, untracedTPS), "%")
	rep.set("trace.layer_sum_us", layerSum, "us")
	rep.set("trace.latency_mean_us", latMean, "us")

	names := make([]string, 0, len(stageSelf))
	for n := range stageSelf {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := ""
	for _, n := range names {
		parts += fmt.Sprintf(" + %s %.2f", n, stageSelf[n])
	}
	rep.note("traced: %d client spans, %d handler spans, %d ordering spans; untraced %.0f tx/s, traced %.0f tx/s",
		nClients, nSubmits, len(ordering), untracedTPS, tracedTPS)
	rep.note("layer sum: netedge inbound %.2f + decode %.2f%s = %.2f us; traced mean latency, send to commit, %.2f us over %d ops (ordering submit runs inside the last stage's exclusive time)",
		inSelf, decodeSelf, parts, layerSum, latMean, len(latencies))

	spanPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.tsv", sp.name, o.seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		rep.note("spans: %v", err)
	} else if err := writeSpans(spanPath, first.clients, first.serverIndex(), first.orders, maxSpanOps); err != nil {
		rep.note("spans: write failed: %v", err)
	} else {
		rep.note("spans: %s", spanPath)
	}

	if sp.name == "edge-mac" {
		if gap := math.Abs(layerSum-latMean) / latMean; !(gap <= layerSumTolerance) {
			return fmt.Errorf("layer self times sum to %.2f us, traced mean latency is %.2f us (%.1f%% apart, tolerance %.0f%%)",
				layerSum, latMean, 100*gap, 100*layerSumTolerance)
		}
	}
	return nil
}

// serverIndex maps request id to handler span.
func (sr *subRun) serverIndex() map[string]serverSpan {
	m := make(map[string]serverSpan, len(sr.submits))
	for _, sv := range sr.submits {
		m[sv.id] = sv
	}
	return m
}

func fdiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
