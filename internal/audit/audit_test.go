package audit

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
)

func TestRecordAndSaw(t *testing.T) {
	l := NewLog()
	l.Record("orderer", ClassTxMetadata, "tx-1")
	if !l.Saw("orderer", ClassTxMetadata, "tx-1") {
		t.Fatal("observation not recorded")
	}
	if l.Saw("orderer", ClassTxData, "tx-1") {
		t.Fatal("wrong class must not match")
	}
	if l.Saw("peer", ClassTxMetadata, "tx-1") {
		t.Fatal("wrong observer must not match")
	}
}

func TestDuplicatesCollapse(t *testing.T) {
	l := NewLog()
	l.Record("o", ClassTxData, "x")
	l.Record("o", ClassTxData, "x")
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
}

func TestItemsSeenSorted(t *testing.T) {
	l := NewLog()
	l.Record("o", ClassIdentity, "b")
	l.Record("o", ClassIdentity, "a")
	l.Record("o", ClassTxData, "z")
	got := l.ItemsSeen("o", ClassIdentity)
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("ItemsSeen = %v, want [a b]", got)
	}
}

func TestObservers(t *testing.T) {
	l := NewLog()
	l.Record("p2", ClassTxData, "tx")
	l.Record("p1", ClassTxData, "tx")
	got := l.Observers(ClassTxData, "tx")
	if !reflect.DeepEqual(got, []string{"p1", "p2"}) {
		t.Fatalf("Observers = %v, want [p1 p2]", got)
	}
}

func TestSawAny(t *testing.T) {
	l := NewLog()
	l.Record("eve", ClassPII, "ssn")
	if !l.SawAny("eve", ClassPII) {
		t.Fatal("SawAny must be true")
	}
	if l.SawAny("eve", ClassTxData) {
		t.Fatal("SawAny wrong class must be false")
	}
}

func TestViolations(t *testing.T) {
	l := NewLog()
	l.Record("member", ClassTxData, "tx-1")
	l.Record("outsider", ClassTxData, "tx-1")
	policy := func(o Observation) bool { return o.Observer == "member" }
	v := l.Violations(policy)
	if len(v) != 1 || v[0].Observer != "outsider" {
		t.Fatalf("Violations = %v, want one outsider entry", v)
	}
}

func TestMatrix(t *testing.T) {
	l := NewLog()
	l.Record("a", ClassTxData, "t2")
	l.Record("a", ClassTxData, "t1")
	l.Record("b", ClassTxData, "t1")
	l.Record("b", ClassTxHash, "t9")
	m := l.Matrix(ClassTxData)
	want := map[string][]string{"a": {"t1", "t2"}, "b": {"t1"}}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("Matrix = %v, want %v", m, want)
	}
}

func TestNilLogSafe(t *testing.T) {
	var l *Log
	l.Record("x", ClassTxData, "y") // must not panic
	if l.Saw("x", ClassTxData, "y") || l.Len() != 0 || l.All() != nil {
		t.Fatal("nil log must behave as empty")
	}
	if l.SawAny("x", ClassTxData) || l.ItemsSeen("x", ClassTxData) != nil || l.Observers(ClassTxData, "y") != nil {
		t.Fatal("nil log queries must be empty")
	}
}

func TestConcurrentRecord(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Record("obs", ClassTxData, string(rune('a'+n)))
			}
		}(i)
	}
	wg.Wait()
	if l.Len() != 8 {
		t.Fatalf("Len = %d, want 8", l.Len())
	}
}

func TestObservationString(t *testing.T) {
	o := Observation{Observer: "orderer", Class: ClassTxMetadata, Item: "tx-1"}
	if o.String() != `orderer saw txmeta "tx-1"` {
		t.Fatalf("String = %q", o.String())
	}
}

// model is the naive reference the compact log must agree with: every
// observation in a slice, membership in a map.
type model struct {
	obs  []Observation
	seen map[Observation]bool
}

func (m *model) record(o Observation) {
	if !m.seen[o] {
		m.seen[o] = true
		m.obs = append(m.obs, o)
	}
}

func (m *model) filter(keep func(Observation) bool, field func(Observation) string) []string {
	var out []string
	for _, o := range m.obs {
		if keep(o) {
			out = append(out, field(o))
		}
	}
	sort.Strings(out)
	return out
}

func TestLogMatchesReferenceModel(t *testing.T) {
	observers := []string{"gateway-op", "orderer-0", "orderer-1", "peer", "eve"}
	classes := []DataClass{ClassTxMetadata, ClassTxData, ClassIdentity, ClassTxHash}
	rng := rand.New(rand.NewSource(7))
	l := NewLog()
	m := &model{seen: make(map[Observation]bool)}
	// Items are drawn from a pool small enough for duplicates to be common
	// and large enough to cross several chunk boundaries.
	const records = 4 * chunkLen * 3
	for i := 0; i < records; i++ {
		o := Observation{
			Observer: observers[rng.Intn(len(observers))],
			Class:    classes[rng.Intn(len(classes))],
			Item:     fmt.Sprintf("tx-%d", rng.Intn(chunkLen)),
		}
		l.Record(o.Observer, o.Class, o.Item)
		m.record(o)
	}
	if len(m.obs) < 2*chunkLen+1 {
		t.Fatalf("only %d distinct observations; the test must cross two chunk boundaries", len(m.obs))
	}
	if len(m.obs) == records {
		t.Fatal("no duplicate was recorded")
	}
	if l.Len() != len(m.obs) {
		t.Fatalf("Len = %d, model %d", l.Len(), len(m.obs))
	}
	if got := l.All(); !reflect.DeepEqual(got, m.obs) {
		t.Fatal("All differs from the model's recording order")
	}
	for _, obs := range append(observers, "nobody") {
		for _, c := range append(classes, ClassPII) {
			items := m.filter(func(o Observation) bool { return o.Observer == obs && o.Class == c },
				func(o Observation) string { return o.Item })
			if got := l.ItemsSeen(obs, c); !reflect.DeepEqual(got, items) {
				t.Fatalf("ItemsSeen(%s, %s) = %d items, model %d", obs, c, len(got), len(items))
			}
			if got := l.SawAny(obs, c); got != (len(items) > 0) {
				t.Fatalf("SawAny(%s, %s) = %v", obs, c, got)
			}
			for i := 0; i < 50; i++ {
				item := fmt.Sprintf("tx-%d", rng.Intn(chunkLen+10))
				if got, want := l.Saw(obs, c, item), m.seen[Observation{obs, c, item}]; got != want {
					t.Fatalf("Saw(%s, %s, %s) = %v, model %v", obs, c, item, got, want)
				}
			}
		}
	}
	for _, c := range classes {
		for i := 0; i < 50; i++ {
			item := fmt.Sprintf("tx-%d", rng.Intn(chunkLen+10))
			want := m.filter(func(o Observation) bool { return o.Class == c && o.Item == item },
				func(o Observation) string { return o.Observer })
			if got := l.Observers(c, item); !reflect.DeepEqual(got, want) {
				t.Fatalf("Observers(%s, %s) = %v, model %v", c, item, got, want)
			}
		}
		want := make(map[string][]string)
		for _, o := range m.obs {
			if o.Class == c {
				want[o.Observer] = append(want[o.Observer], o.Item)
			}
		}
		for k := range want {
			sort.Strings(want[k])
		}
		if got := l.Matrix(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("Matrix(%s) differs from the model", c)
		}
	}
	policy := func(o Observation) bool { return o.Observer != "eve" && o.Class != ClassTxData }
	var want []Observation
	for _, o := range m.obs {
		if !policy(o) {
			want = append(want, o)
		}
	}
	if got := l.Violations(policy); !reflect.DeepEqual(got, want) {
		t.Fatalf("Violations = %d observations, model %d", len(got), len(want))
	}
}

// TestConcurrentRecordAndQuery runs writers across chunk boundaries while
// readers query and iterate; run it under -race.
func TestConcurrentRecordAndQuery(t *testing.T) {
	l := NewLog()
	const writers, perWriter = 4, chunkLen
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs := fmt.Sprintf("op-%d", w%2)
			for j := 0; j < perWriter; j++ {
				l.Record(obs, ClassTxMetadata, fmt.Sprintf("tx-%d-%d", w, j))
				l.Record(obs, ClassTxMetadata, fmt.Sprintf("tx-%d-%d", w, j))
			}
		}(w)
	}
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			l.SawAny("op-0", ClassTxMetadata)
			l.Observers(ClassTxMetadata, "tx-0-0")
			l.ItemsSeen("op-1", ClassTxMetadata)
			// A policy may query the log: iteration holds no lock.
			l.Violations(func(o Observation) bool { return l.Saw(o.Observer, o.Class, o.Item) })
			l.Matrix(ClassTxMetadata)
		}
	}()
	wg.Wait()
	close(done)
	readers.Wait()
	if l.Len() != writers*perWriter {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perWriter)
	}
	if got := len(l.ItemsSeen("op-0", ClassTxMetadata)); got != writers/2*perWriter {
		t.Fatalf("op-0 saw %d items, want %d", got, writers/2*perWriter)
	}
}

func TestDuplicateRecordAllocatesNothing(t *testing.T) {
	l := NewLog()
	l.Record("orderer", ClassTxMetadata, "tx-1")
	allocs := testing.AllocsPerRun(1000, func() {
		l.Record("orderer", ClassTxMetadata, "tx-1")
	})
	if allocs != 0 {
		t.Fatalf("duplicate Record allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkLogRecord records the served path's pattern: each submission is
// seen by the gateway and by one of two orderers, as envelope metadata
// under a 64-character hex ID. retained-B/obs is the live heap the log
// holds per distinct observation after a collection, excluding the item
// strings, which the caller allocates.
func BenchmarkLogRecord(b *testing.B) {
	items := make([]string, (b.N+1)/2)
	for i := range items {
		items[i] = fmt.Sprintf("%064x", i)
	}
	orderers := []string{"orderer-0", "orderer-1"}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := NewLog()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			l.Record("gateway-op", ClassTxMetadata, items[i/2])
		} else {
			l.Record(orderers[i/2%2], ClassTxMetadata, items[i/2])
		}
	}
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(l.Len()), "retained-B/obs")
	runtime.KeepAlive(l)
	runtime.KeepAlive(items)
}
