// Package audit provides leakage accounting: every substrate reports which
// principal observed which datum, turning the paper's qualitative privacy
// claims ("identities of channel members are not revealed to the wider
// network", "the ordering service has full visibility") into assertions the
// experiment suite can check and the benchmark harness can tabulate.
//
// # Memory
//
// A Log retains every distinct observation for its lifetime; bounding
// retention would change what the accounting can answer. A served
// submission adds about two observations (the gateway's and the orderer's
// envelope metadata), so the log of a long-running gateway grows linearly
// with its traffic. Each observation costs one recording-order entry and
// one item-set slot, about 82 B with Go 1.24 on amd64 (BenchmarkLogRecord
// reports it as retained-B/obs), plus the item string, which the two
// share.
package audit

import (
	"fmt"
	"sort"
	"sync"
)

// DataClass categorizes observed information along the paper's three axes
// (§1): the group of interacting parties, transaction data, and business
// logic — plus metadata classes needed to describe ordering-service and
// hash-anchor visibility precisely.
type DataClass string

// Data classes.
const (
	// ClassIdentity is a party's legal identity.
	ClassIdentity DataClass = "identity"
	// ClassRelationship is the fact that two or more parties transact.
	ClassRelationship DataClass = "relationship"
	// ClassTxData is transaction payload content.
	ClassTxData DataClass = "txdata"
	// ClassTxHash is a hash of transaction data (existence evidence
	// without content, §2.2).
	ClassTxHash DataClass = "txhash"
	// ClassBusinessLogic is smart-contract source or semantics.
	ClassBusinessLogic DataClass = "logic"
	// ClassTxMetadata is envelope-level metadata (channel id, sizes,
	// timing) visible to infrastructure such as the ordering service.
	ClassTxMetadata DataClass = "txmeta"
	// ClassPII is personally identifying information subject to deletion
	// requirements (§3, GDPR).
	ClassPII DataClass = "pii"
)

// Observation records that Observer saw Item of class Class.
type Observation struct {
	Observer string
	Class    DataClass
	Item     string
}

// chunkLen is the number of observations one recording-order chunk holds.
// Chunks are fixed-size arrays, so the log grows by adding a chunk and
// never copies the observations it already holds.
const chunkLen = 512

// entry is one observation in recording order: the interned
// (observer, class) key and the item.
type entry struct {
	key  uint32
	item string
}

type chunk [chunkLen]entry

// obsKey is an (observer, class) pair, interned once per log.
type obsKey struct {
	observer string
	class    DataClass
}

// keyState holds what one (observer, class) key has seen.
type keyState struct {
	obsKey
	items map[string]struct{}
}

// Log is a concurrency-safe observation log. The (observer, class) pairs
// are interned in a small key table and each pair keeps its own item set,
// so Saw and SawAny are O(1) and ItemsSeen and Observers never scan the
// whole log; recording order lives in fixed-size chunks.
type Log struct {
	mu sync.Mutex
	// ids maps an (observer, class) pair to its index in keys.
	ids  map[obsKey]uint32
	keys []*keyState
	// chunks hold the observations in recording order; n counts them. Only
	// entry n is ever written, so a reader holding a snapshot of chunks
	// and n may iterate the first n entries without the lock.
	chunks []*chunk
	n      int
}

// NewLog creates an empty observation log.
func NewLog() *Log {
	return &Log{ids: make(map[obsKey]uint32)}
}

// Record notes that observer saw item. Duplicate observations collapse.
func (l *Log) Record(observer string, class DataClass, item string) {
	if l == nil {
		return // substrates may run without accounting
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := obsKey{observer, class}
	k, ok := l.ids[id]
	if !ok {
		k = uint32(len(l.keys))
		l.ids[id] = k
		l.keys = append(l.keys, &keyState{obsKey: id, items: make(map[string]struct{})})
	}
	items := l.keys[k].items
	if _, dup := items[item]; dup {
		return
	}
	items[item] = struct{}{}
	if l.n == len(l.chunks)*chunkLen {
		l.chunks = append(l.chunks, new(chunk))
	}
	l.chunks[l.n/chunkLen][l.n%chunkLen] = entry{key: k, item: item}
	l.n++
}

// itemsLocked returns the item set of (observer, class), nil if the pair
// saw nothing. Caller holds l.mu.
func (l *Log) itemsLocked(observer string, class DataClass) map[string]struct{} {
	k, ok := l.ids[obsKey{observer, class}]
	if !ok {
		return nil
	}
	return l.keys[k].items
}

// Saw reports whether observer recorded an observation of item.
func (l *Log) Saw(observer string, class DataClass, item string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.itemsLocked(observer, class)[item]
	return ok
}

// SawAny reports whether observer saw anything of the given class.
func (l *Log) SawAny(observer string, class DataClass) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.itemsLocked(observer, class)) > 0
}

// ItemsSeen returns the sorted items of a class seen by observer.
func (l *Log) ItemsSeen(observer string, class DataClass) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	items := l.itemsLocked(observer, class)
	var out []string
	if len(items) > 0 {
		out = make([]string, 0, len(items))
		for it := range items {
			out = append(out, it)
		}
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// Observers returns the sorted principals that saw the item.
func (l *Log) Observers(class DataClass, item string) []string {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	var out []string
	for _, ks := range l.keys {
		if ks.class != class {
			continue
		}
		if _, ok := ks.items[item]; ok {
			out = append(out, ks.observer)
		}
	}
	l.mu.Unlock()
	sort.Strings(out)
	return out
}

// each calls fn for every observation in recording order. It iterates a
// snapshot without holding the lock, so fn may query the log; observations
// recorded meanwhile are not visited.
func (l *Log) each(fn func(key *keyState, item string)) {
	if l == nil {
		return
	}
	l.mu.Lock()
	chunks, keys, n := l.chunks, l.keys, l.n
	l.mu.Unlock()
	for i := 0; i < n; i++ {
		e := &chunks[i/chunkLen][i%chunkLen]
		fn(keys[e.key], e.item)
	}
}

// All returns a copy of every observation in recording order.
func (l *Log) All() []Observation {
	if l == nil {
		return nil
	}
	out := make([]Observation, 0, l.Len())
	l.each(func(k *keyState, item string) {
		out = append(out, Observation{Observer: k.observer, Class: k.class, Item: item})
	})
	return out
}

// Len returns the number of distinct observations.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// Policy decides whether an observation is authorized. Experiments encode
// the paper's confidentiality requirements as policies and assert zero
// violations.
type Policy func(o Observation) bool

// Violations returns every observation the policy rejects.
func (l *Log) Violations(allowed Policy) []Observation {
	var out []Observation
	l.each(func(k *keyState, item string) {
		if o := (Observation{Observer: k.observer, Class: k.class, Item: item}); !allowed(o) {
			out = append(out, o)
		}
	})
	return out
}

// Matrix summarizes, for one data class, which observer saw which items:
// observer -> sorted item list. The benchmark harness prints these as the
// leakage tables of experiments E3–E6.
func (l *Log) Matrix(class DataClass) map[string][]string {
	out := make(map[string][]string)
	l.each(func(k *keyState, item string) {
		if k.class == class {
			out[k.observer] = append(out[k.observer], item)
		}
	})
	for k := range out {
		sort.Strings(out[k])
	}
	return out
}

// String renders an observation for error messages.
func (o Observation) String() string {
	return fmt.Sprintf("%s saw %s %q", o.Observer, o.Class, o.Item)
}
