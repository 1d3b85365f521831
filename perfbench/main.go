// Command perfbench is the repository benchmark: one confidential
// submission from a client socket to a sealed, committed block, measured
// end to end and, in a traced run, layer by layer.
//
// Each run stands the gateway up in process behind a real loopback
// netedge listener, composed as cmd/gateway -listen composes it, drives
// one workload through netedge clients in a closed loop, verifies every
// acknowledged transaction was committed exactly once and stayed
// confidential, and prints its metrics. The last line of standard output
// is one JSON object: correct, attempted, failed and metrics. A failed
// check exits 1.
//
//	perfbench --workload edge-mac --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each per-layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

const (
	// sampleEvery: every Nth single envelope is also opened through
	// middleware.OpenEnvelope.
	sampleEvery = 97
	// layerSumTolerance bounds |sum of layer self times up to commit -
	// traced mean latency| / traced mean latency on edge-mac.
	layerSumTolerance = 0.10
	// maxSpanOps bounds the ops whose spans the traced run writes out.
	maxSpanOps = 20000
	// outDir holds span and result files, relative to the checkout root.
	outDir = ".bench_build/perfbench-out"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "edge-mac", "workload: edge-mac, edge-groupseal, edge-groupseal-json, session-churn or failover")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "sub-runs are added until their timed windows add up to this many seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	sp, err := lookupSpec(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	env := environment(sp, o)
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env: %s\n", envJSON)

	rep, err := run(sp, o)
	if rep == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := result{Correct: err == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	printed := make(map[string]metric)
	for _, ms := range []map[string]metric{rep.shown, rep.metrics} {
		for n, m := range ms {
			printed[n] = m
		}
	}
	names := make([]string, 0, len(printed))
	for n := range printed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.4f %s\n", n, printed[n].Value, printed[n].Unit)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	if err := saveResult(o, env, res, rep.notes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: save result:", err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report is one run's outcome: metrics, op counts and human-readable
// notes (sample counts, check summaries).
type report struct {
	metrics           map[string]metric // the result line's metrics
	shown             map[string]metric // printed, not in the result line
	attempted, failed int
	notes             []string
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) show(name string, m metric) {
	if r.shown == nil {
		r.shown = make(map[string]metric)
	}
	r.shown[name] = m
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func failedOps(r *runner) error {
	_, failed, err := r.counts()
	if failed > 0 {
		return fmt.Errorf("%d operations failed, first: %v", failed, err)
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func errorRate(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// quantile is the nearest-rank q-quantile of xs (sorted in place), in the
// unit of xs; 0 when xs is empty.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += float64(x)
	}
	return t / float64(len(xs))
}

// cpuNanos is the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// environment records what a result depends on besides the code, so
// results from different machines are never compared silently.
func environment(sp spec, o options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":        sp.name,
		"seed":            o.seed,
		"seconds":         o.seconds,
		"warmup_ops":      sp.warmupOps(),
		"window_ops":      sp.windowOps,
		"trace":           o.trace,
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go":              runtime.Version(),
		"goos_goarch":     runtime.GOOS + "/" + runtime.GOARCH,
		"network":         "tcp over the host loopback interface (127.0.0.1)",
		"conns":           numConns,
		"window_per_conn": sp.window,
		"submitters":      sp.submitters(),
		"loop":            "closed",
		"channels":        numChannels,
		"shards":          numShards,
		"replicas":        sp.replicas,
		"payload_bytes":   sp.payload,
		"pipeline":        sp.stages,
		"codec":           sp.codec,
		"commit":          commit,
		"source_sha256":   sourceDigest("."),
	}
}

// sourceDigest hashes the Go sources and module files under root, the
// commit stand-in when the checkout is not a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveResult writes the environment, metrics and notes of the run.
func saveResult(o options, env map[string]any, res result, notes []string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	trace := 0
	if o.trace {
		trace = 1
	}
	b, err := json.MarshalIndent(map[string]any{"env": env, "result": res, "notes": notes}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace)
	return os.WriteFile(filepath.Join(outDir, name), b, 0o644)
}
