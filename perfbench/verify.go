package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
)

// Verifier failures. Every one fails the run.
var (
	errChain        = errors.New("chain integrity")
	errExactlyOnce  = errors.New("exactly once")
	errConfidential = errors.New("confidentiality")
	errDrops        = errors.New("drops")
)

// chainView is one channel's recorded delivery: blocks in delivery order
// and the time each reached the benchmark's subscriber.
type chainView struct {
	channel string
	blocks  []ledger.Block
	at      []int64
}

// opTable is every operation the clients issued, indexed by op id: the
// send time (0: never issued) and the ack time (0: not acknowledged).
type opTable struct {
	send []int64
	ack  []int64
}

// verifySpec is what the verifier needs besides the recorded chains.
type verifySpec struct {
	// plaintext regenerates op's plaintext from the workload seed.
	plaintext func(dst []byte, op uint64) []byte
	// member is a channel member whose key the benchmark generated; it
	// opens every committed payload.
	member principal
	// sampleEvery opens every Nth single envelope (and every group) a
	// second time through the public middleware.OpenEnvelope.
	sampleEvery int
	// operators and log: no ordering operator may have seen tx data.
	operators []string
	log       *audit.Log
	// Edge and audit-ring counters; each must be 0.
	frameErrors, sheds, auditShed uint64
}

// verifyResult maps each committed op to the delivery time of its block.
type verifyResult struct {
	commitAt []int64
	txs      int // ledger transactions (a group counts once)
	blocks   int
	members  int // committed ops (a group counts each member)
	sampled  int // payloads also opened through the public open path
}

// verify checks a run's recorded output: every chain replays into a fresh
// ledger and verifies; every acknowledged op was committed exactly once
// and nothing else was committed; no committed payload holds its
// plaintext, each opens to exactly the bytes sent, and no ordering
// operator saw tx data; nothing was dropped at the edge or audit ring.
// It returns the first failure it finds, but goes on mapping every op it
// can to its commit time, so a failed run still reports its figures.
func verify(chains []chainView, ops opTable, vs verifySpec) (verifyResult, error) {
	res := verifyResult{commitAt: make([]int64, len(ops.send))}
	counts := make([]uint8, len(ops.send))
	var failed firstFailure
	failed.add(checkDrops(vs))
	for _, op := range vs.operators {
		if vs.log.SawAny(op, audit.ClassTxData) {
			failed.add(fmt.Errorf("%w: ordering operator %s observed tx data", errConfidential, op))
		}
	}

	// Channels verify in parallel; each writes only its own ops' entries.
	workers := runtime.GOMAXPROCS(0)
	if workers > len(chains) {
		workers = len(chains)
	}
	jobs := make(chan int)
	errs := make([]error, len(chains))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				st, err := verifyChain(chains[i], ops, vs, res.commitAt, counts, &mu)
				mu.Lock()
				res.txs += st.txs
				res.blocks += st.blocks
				res.members += st.members
				res.sampled += st.sampled
				mu.Unlock()
				errs[i] = err
			}
		}()
	}
	for i := range chains {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		failed.add(err)
	}
	for op, sent := range ops.send {
		switch {
		case counts[op] > 1:
			failed.add(fmt.Errorf("%w: op %d committed %d times", errExactlyOnce, op, counts[op]))
		case ops.ack[op] != 0 && counts[op] == 0:
			failed.add(fmt.Errorf("%w: acknowledged op %d never committed", errExactlyOnce, op))
		case ops.ack[op] == 0 && counts[op] != 0:
			failed.add(fmt.Errorf("%w: op %d committed without an ack (sent=%v)", errExactlyOnce, op, sent != 0))
		}
	}
	return res, failed.err
}

// firstFailure keeps the first non-nil error it is given.
type firstFailure struct{ err error }

func (f *firstFailure) add(err error) {
	if f.err == nil {
		f.err = err
	}
}

func checkDrops(vs verifySpec) error {
	if vs.frameErrors != 0 || vs.sheds != 0 || vs.auditShed != 0 {
		return fmt.Errorf("%w: edge frame errors %d, edge sheds %d, audit shed %d",
			errDrops, vs.frameErrors, vs.sheds, vs.auditShed)
	}
	return nil
}

// verifyChain replays one channel and opens every payload on it. A
// payload that fails a check is not counted as committed.
func verifyChain(cv chainView, ops opTable, vs verifySpec, commitAt []int64, counts []uint8, mu *sync.Mutex) (verifyResult, error) {
	var st verifyResult
	var failed firstFailure
	l := ledger.New(cv.channel)
	for _, b := range cv.blocks {
		if err := l.Append(b); err != nil {
			failed.add(fmt.Errorf("%w: %s: %v", errChain, cv.channel, err))
			break
		}
	}
	if failed.err == nil {
		if err := l.VerifyChain(); err != nil {
			failed.add(fmt.Errorf("%w: %s: %v", errChain, cv.channel, err))
		}
	}
	o := opener{member: vs.member, keys: make(map[string][]byte)}
	var want []byte
	for bi, b := range cv.blocks {
		st.blocks++
		for _, tx := range b.Txs {
			st.txs++
			if tx.Channel != cv.channel {
				failed.add(fmt.Errorf("%w: block %d on %s carries a %s transaction", errChain, b.Number, cv.channel, tx.Channel))
				continue
			}
			plains, sampled, err := o.open(tx, vs.sampleEvery)
			if err != nil {
				failed.add(fmt.Errorf("%w: %s block %d: %v", errConfidential, cv.channel, b.Number, err))
				continue
			}
			if sampled {
				st.sampled++
			}
			for _, p := range plains {
				op, ok := parseOp(p)
				if !ok || op >= uint64(len(ops.send)) || ops.send[op] == 0 {
					failed.add(fmt.Errorf("%w: %s block %d commits a payload no client sent", errExactlyOnce, cv.channel, b.Number))
					continue
				}
				want = vs.plaintext(want, op)
				if !bytes.Equal(p, want) {
					failed.add(fmt.Errorf("%w: op %d opens to bytes other than those sent", errConfidential, op))
					continue
				}
				if bytes.Contains(tx.Payload, want) {
					failed.add(fmt.Errorf("%w: op %d committed its plaintext", errConfidential, op))
					continue
				}
				mu.Lock()
				counts[op]++
				commitAt[op] = cv.at[bi]
				mu.Unlock()
				st.members++
			}
		}
	}
	return st, failed.err
}

// opener opens committed payloads as one channel member. Group envelopes
// open through middleware.OpenGroupEnvelope. Single envelopes of a key
// epoch share one wrapped data key, so the key is unwrapped once per
// distinct wrapped key and every envelope of the epoch is opened with it;
// every Nth envelope is opened again through middleware.OpenEnvelope and
// must give the same bytes.
type opener struct {
	member principal
	keys   map[string][]byte // wrapped data key -> data key
	n      int
}

func (o *opener) open(tx ledger.Transaction, sampleEvery int) ([][]byte, bool, error) {
	if _, ok := tx.Meta[middleware.MetaBatch]; ok {
		genv, err := middleware.ParseGroupEnvelope(tx.Payload)
		if err != nil {
			return nil, false, err
		}
		plains, err := middleware.OpenGroupEnvelope(genv, o.member.name, o.member.key)
		return plains, true, err
	}
	env, err := middleware.ParseEnvelope(tx.Payload)
	if err != nil {
		return nil, false, err
	}
	if env.Scheme != middleware.EnvelopeScheme {
		return nil, false, fmt.Errorf("payload is not a %s envelope (scheme %q)", middleware.EnvelopeScheme, env.Scheme)
	}
	if env.Epoch == 0 {
		// A fresh data key per envelope: nothing to cache.
		p, err := middleware.OpenEnvelope(env, o.member.name, o.member.key)
		return [][]byte{p}, true, err
	}
	p, err := o.openCached(env)
	if err != nil {
		return nil, false, err
	}
	o.n++
	if sampleEvery == 0 || o.n%sampleEvery != 0 {
		return [][]byte{p}, false, nil
	}
	q, err := middleware.OpenEnvelope(env, o.member.name, o.member.key)
	if err != nil {
		return nil, true, err
	}
	if !bytes.Equal(p, q) {
		return nil, true, errors.New("cached-key open disagrees with middleware.OpenEnvelope")
	}
	return [][]byte{p}, true, nil
}

// envelopeAD is the single-envelope associated-data domain.
func envelopeAD(channel string) []byte { return []byte("middleware/envelope/v1/" + channel) }

func (o *opener) openCached(env middleware.Envelope) ([]byte, error) {
	wrapped, ok := env.Keys[o.member.name]
	if !ok {
		return nil, fmt.Errorf("%s is not a recipient", o.member.name)
	}
	id := string(wrapped.EphemeralPub) + string(wrapped.Ciphertext)
	key, ok := o.keys[id]
	if !ok {
		var err error
		if key, err = dcrypto.DecryptHybrid(o.member.key, wrapped, envelopeAD(env.Channel)); err != nil {
			return nil, fmt.Errorf("unwrap data key: %w", err)
		}
		o.keys[id] = key
	}
	return dcrypto.DecryptSymmetric(key, env.Ciphertext, envelopeAD(env.Channel))
}

// opIDLen is the op-id prefix every payload carries: "op-" and 13 digits.
const opIDLen = 16

// stampOp writes op's id over the first opIDLen bytes of b.
func stampOp(b []byte, op uint64) {
	copy(b, "op-")
	for i := opIDLen - 1; i >= 3; i-- {
		b[i] = '0' + byte(op%10)
		op /= 10
	}
}

func parseOp(b []byte) (uint64, bool) {
	if len(b) < opIDLen || string(b[:3]) != "op-" {
		return 0, false
	}
	var op uint64
	for _, c := range b[3:opIDLen] {
		if c < '0' || c > '9' {
			return 0, false
		}
		op = op*10 + uint64(c-'0')
	}
	return op, true
}
