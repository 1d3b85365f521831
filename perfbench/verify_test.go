package main

import (
	"errors"
	"testing"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
)

const testChannel = "deals-0"

// fixture is a small recorded run: one channel, one op per block, every
// payload sealed to one member, every op acknowledged.
type fixture struct {
	t     *testing.T
	plain *plaintexts
	spec  verifySpec
	txs   []ledger.Transaction
	ops   opTable
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	key, err := dcrypto.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	member := principal{name: principalName(0), key: key}
	plain, err := newPlaintexts(1, 96)
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{
		t:     t,
		plain: plain,
		spec: verifySpec{
			plaintext:   plain.fill,
			member:      member,
			sampleEvery: 2,
			operators:   []string{"orderer-op-0"},
			log:         audit.NewLog(),
		},
		ops: opTable{send: make([]int64, n), ack: make([]int64, n)},
	}
	for op := 0; op < n; op++ {
		f.txs = append(f.txs, f.tx(f.seal(uint64(op), "")))
		f.spec.log.Record("orderer-op-0", audit.ClassTxMetadata, f.txs[op].ID())
		f.ops.send[op] = int64(10 + op)
		f.ops.ack[op] = int64(20 + op)
	}
	return f
}

// seal encrypts op's plaintext to the member. Odd ops carry a key epoch,
// so both open paths run: the cached data key and, on sampled envelopes,
// middleware.OpenEnvelope. A non-empty extra names a second recipient
// holding the member's wrapped key.
func (f *fixture) seal(op uint64, extra string) []byte {
	f.t.Helper()
	env, err := middleware.SealEnvelope(testChannel, f.plain.fill(nil, op),
		map[string]dcrypto.PublicKey{f.spec.member.name: f.spec.member.key.Public()})
	if err != nil {
		f.t.Fatal(err)
	}
	env.Epoch = op % 2
	if extra != "" {
		env.Keys[extra] = env.Keys[f.spec.member.name]
	}
	payload, err := middleware.EncodeEnvelope(env, middleware.CodecBinary)
	if err != nil {
		f.t.Fatal(err)
	}
	return payload
}

func (f *fixture) tx(payload []byte) ledger.Transaction {
	return ledger.Transaction{
		Channel:   testChannel,
		Creator:   principalName(0),
		Payload:   payload,
		Meta:      map[string]string{"gateway": "gw"},
		Timestamp: time.Unix(1700000000, 0),
	}
}

// chain cuts one block per transaction, hash-linked from genesis.
func chain(txs []ledger.Transaction) chainView {
	cv := chainView{channel: testChannel}
	var prev [32]byte
	for i, tx := range txs {
		b := ledger.NewBlock(uint64(i), prev, []ledger.Transaction{tx})
		prev = b.Hash()
		cv.blocks = append(cv.blocks, b)
		cv.at = append(cv.at, int64(100+i))
	}
	return cv
}

func TestVerifyAcceptsCleanRun(t *testing.T) {
	f := newFixture(t, 6)
	res, err := verify([]chainView{chain(f.txs)}, f.ops, f.spec)
	if err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	if res.members != 6 || res.blocks != 6 || res.sampled == 0 {
		t.Fatalf("result %+v, want 6 ops in 6 blocks and some sampled opens", res)
	}
	for op, at := range res.commitAt {
		if at != int64(100+op) {
			t.Errorf("op %d commit time %d, want %d", op, at, 100+op)
		}
	}
}

// TestVerifyCatchesTampering feeds the verifier tampered recordings; each
// must fail the run with the matching check.
func TestVerifyCatchesTampering(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(f *fixture) []chainView
		want   error
	}{
		{"duplicated op", func(f *fixture) []chainView {
			return []chainView{chain(append(append([]ledger.Transaction(nil), f.txs...), f.txs[2]))}
		}, errExactlyOnce},
		{"dropped op", func(f *fixture) []chainView {
			return []chainView{chain(f.txs[:len(f.txs)-1])}
		}, errExactlyOnce},
		{"committed without ack", func(f *fixture) []chainView {
			f.ops.ack[3] = 0
			return []chainView{chain(f.txs)}
		}, errExactlyOnce},
		{"broken PrevHash", func(f *fixture) []chainView {
			cv := chain(f.txs)
			cv.blocks[3].PrevHash[0] ^= 0xff
			return []chainView{cv}
		}, errChain},
		{"plaintext payload", func(f *fixture) []chainView {
			txs := append([]ledger.Transaction(nil), f.txs...)
			txs[1] = f.tx(f.plain.fill(nil, 1))
			return []chainView{chain(txs)}
		}, errConfidential},
		{"plaintext beside a valid envelope", func(f *fixture) []chainView {
			txs := append([]ledger.Transaction(nil), f.txs...)
			txs[1] = f.tx(f.seal(1, string(f.plain.fill(nil, 1))))
			return []chainView{chain(txs)}
		}, errConfidential},
		{"operator saw tx data", func(f *fixture) []chainView {
			f.spec.log.Record("orderer-op-0", audit.ClassTxData, f.txs[0].ID())
			return []chainView{chain(f.txs)}
		}, errConfidential},
		{"payload opens to other bytes", func(f *fixture) []chainView {
			f.spec.plaintext = func(dst []byte, op uint64) []byte {
				dst = f.plain.fill(dst, op)
				dst[len(dst)-1] ^= 1
				return dst
			}
			return []chainView{chain(f.txs)}
		}, errConfidential},
		{"edge frame error", func(f *fixture) []chainView {
			f.spec.frameErrors = 1
			return []chainView{chain(f.txs)}
		}, errDrops},
		{"audit shed", func(f *fixture) []chainView {
			f.spec.auditShed = 1
			return []chainView{chain(f.txs)}
		}, errDrops},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, 6)
			chains := tc.tamper(f)
			_, err := verify(chains, f.ops, f.spec)
			if !errors.Is(err, tc.want) {
				t.Fatalf("verify = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestVerifyMapsCommitsPastFailure: a failed check does not stop the
// verifier mapping every valid op to its commit time, so a failed run
// still reports its figures; the op whose check failed is not mapped.
func TestVerifyMapsCommitsPastFailure(t *testing.T) {
	f := newFixture(t, 6)
	f.spec.sheds = 1
	txs := append([]ledger.Transaction(nil), f.txs...)
	txs[1] = f.tx(f.plain.fill(nil, 1))
	res, err := verify([]chainView{chain(txs)}, f.ops, f.spec)
	if !errors.Is(err, errDrops) {
		t.Fatalf("verify = %v, want the first failure, %v", err, errDrops)
	}
	for op, at := range res.commitAt {
		want := int64(100 + op)
		if op == 1 {
			want = 0
		}
		if at != want {
			t.Errorf("op %d commit time %d, want %d", op, at, want)
		}
	}
}

func TestOpIDRoundTrip(t *testing.T) {
	b := make([]byte, 96)
	for _, op := range []uint64{0, 7, 123456789, 9999999999999} {
		stampOp(b, op)
		got, ok := parseOp(b)
		if !ok || got != op {
			t.Fatalf("stamp %d parsed as %d (%v)", op, got, ok)
		}
	}
	if _, ok := parseOp([]byte("not an op id at all")); ok {
		t.Fatal("parsed an op id from a payload without one")
	}
}

func TestKillGaps(t *testing.T) {
	got := killGaps([]int64{10, 20, 50}, []int64{5, 12, 13, 25, 40})
	want := []int64{2, 5}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("killGaps = %v, want %v", got, want)
	}
}
