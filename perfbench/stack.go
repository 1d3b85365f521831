package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dltprivacy/internal/audit"
	"dltprivacy/internal/dcrypto"
	"dltprivacy/internal/ledger"
	"dltprivacy/internal/middleware"
	"dltprivacy/internal/netedge"
	"dltprivacy/internal/ordering"
	"dltprivacy/internal/pki"
)

// epoch anchors every timestamp the benchmark takes: mono() is a bare
// monotonic-clock read.
var epoch = time.Now()

func mono() int64 { return int64(time.Since(epoch)) }

// principal is one client identity: its key never leaves the benchmark,
// its certificate comes from the gateway's CA over the wire.
type principal struct {
	name string
	key  *dcrypto.PrivateKey
	cert pki.Certificate
}

// session is a held session: the grant and the connection it is bound to.
type session struct {
	conn  int
	token string
	mac   []byte
}

// chainRec records one channel's delivered blocks and their delivery
// times. The callback holds the lock only to append.
type chainRec struct {
	mu     sync.Mutex
	blocks []ledger.Block
	at     []int64
	last   atomic.Int64 // delivery time of the newest block
}

func (r *chainRec) deliver(b ledger.Block) error {
	now := mono()
	r.mu.Lock()
	r.blocks = append(r.blocks, b)
	r.at = append(r.at, now)
	r.mu.Unlock()
	r.last.Store(now)
	return nil
}

// stack is the gateway as cmd/gateway -listen composes it, behind a real
// loopback edge, plus the benchmark's clients.
type stack struct {
	spec       spec
	channels   []string
	log        *audit.Log
	sharded    *ordering.ShardedBackend
	replicated []*ordering.ReplicatedShard
	gw         *middleware.Gateway
	edge       *netedge.Server
	conns      []*netedge.Client
	principals []principal
	sessions   []session // one per submitter; empty under churn
	chains     map[string]*chainRec
	tr         *tracer // nil outside the traced run
}

// buildStack stands the stack up: CA, shards, gateway, enrollment handler,
// edge; then the clients dial, enroll their principals over the wire and
// open the held sessions.
func buildStack(ctx context.Context, sp spec, tr *tracer) (*stack, error) {
	s := &stack{spec: sp, log: audit.NewLog(), chains: make(map[string]*chainRec), tr: tr}
	for i := 0; i < numChannels; i++ {
		s.channels = append(s.channels, channelName(i))
	}
	ca, err := pki.NewCA("edge-ca")
	if err != nil {
		return nil, err
	}
	dir := middleware.NewSyncDirectory()

	shards := make([]ordering.Backend, numShards)
	for i := range shards {
		if sp.replicas == 0 {
			shards[i] = ordering.New(fmt.Sprintf("orderer-op-%d", i),
				ordering.VisibilityEnvelope, ordering.WithAuditLog(s.log))
			continue
		}
		ops := make([]string, sp.replicas)
		for r := range ops {
			ops[r] = fmt.Sprintf("orderer-op-%d-%d", i, r)
		}
		rs, err := ordering.NewReplicatedShard(ops, ordering.VisibilityEnvelope, ordering.WithShardAudit(s.log))
		if err != nil {
			return nil, err
		}
		s.replicated = append(s.replicated, rs)
		shards[i] = rs
	}
	if tr != nil {
		for i := range shards {
			shards[i] = &timedBackend{Backend: shards[i], tr: tr}
		}
	}
	if s.sharded, err = ordering.NewSharded(shards); err != nil {
		return nil, err
	}
	for _, ch := range s.channels {
		rec := &chainRec{}
		s.chains[ch] = rec
		s.sharded.Subscribe(ch, rec.deliver)
	}

	stages, err := middleware.ParseStages(sp.stages)
	if err != nil {
		return nil, err
	}
	cfg := middleware.Config{Stages: stages, Shards: numShards, Codec: sp.codec}
	env := middleware.Env{CAKey: ca.PublicKey(), Directory: dir, Log: s.log, Revoker: ca}
	if s.gw, err = middleware.NewGateway("gw", cfg, env, s.sharded); err != nil {
		return nil, err
	}
	var handler netedge.Handler = netedge.EnrollmentHandler(ca, func(identity string, pub dcrypto.PublicKey) {
		for _, ch := range s.channels {
			dir.AddMember(ch, identity, pub)
		}
	}, s.gw)
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	s.edge, err = netedge.Listen("127.0.0.1:0", handler,
		netedge.WithAcceptLoops(acceptLoops),
		netedge.WithConnCloseHook(func(transportID string) { s.gw.Sessions().EvictTransport(transportID) }))
	if err != nil {
		s.gw.Close()
		return nil, err
	}

	for i := 0; i < numConns; i++ {
		c, err := netedge.Dial(s.edge.Addr().String(), netedge.WithInFlight(sp.window+1))
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	for i := 0; i < sp.principals; i++ {
		key, err := dcrypto.GenerateKey()
		if err != nil {
			s.close()
			return nil, err
		}
		name := principalName(i)
		cert, err := s.conns[i%numConns].Enroll(ctx, name, key.Public())
		if err != nil {
			s.close()
			return nil, fmt.Errorf("enroll %s: %w", name, err)
		}
		s.principals = append(s.principals, principal{name: name, key: key, cert: cert})
	}
	if !sp.churn {
		for i := 0; i < sp.submitters(); i++ {
			sess, err := s.open(ctx, i%numConns, s.heldPrincipal(i))
			if err != nil {
				s.close()
				return nil, err
			}
			s.sessions = append(s.sessions, sess)
		}
	}
	return s, nil
}

// heldPrincipal is the principal of held-session submitter i: the
// submitters split evenly over the principals, and each runs on its own
// channel, so no two submitters share a (principal, channel) pair.
func (s *stack) heldPrincipal(i int) int { return i * len(s.principals) / s.spec.submitters() }

// open runs the signed handshake for principal p over connection conn.
func (s *stack) open(ctx context.Context, conn, p int) (session, error) {
	pr := s.principals[p]
	grant, err := s.conns[conn].OpenSession(ctx, pr.name, pr.cert, pr.key, s.spec.codec)
	if err != nil {
		return session{}, fmt.Errorf("open session for %s: %w", pr.name, err)
	}
	if grant.Codec != s.spec.codec || len(grant.MacKey) == 0 {
		return session{}, fmt.Errorf("session for %s: want a %s MAC session, got codec %q", pr.name, s.spec.codec, grant.Codec)
	}
	return session{conn: conn, token: grant.Token, mac: grant.MacKey}, nil
}

// dropRecords releases the recorded blocks once they are verified.
func (s *stack) dropRecords() {
	for _, rec := range s.chains {
		rec.mu.Lock()
		rec.blocks, rec.at = nil, nil
		rec.mu.Unlock()
	}
}

// operators names every ordering operator of the topology.
func (s *stack) operators() []string { return s.sharded.Operators() }

func (s *stack) close() {
	for _, c := range s.conns {
		c.Close()
	}
	if s.edge != nil {
		s.edge.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
}

// verifySpec is what the verifier needs from this stack.
func (s *stack) verifySpec(plain *plaintexts) verifySpec {
	es := s.edge.Stats()
	return verifySpec{
		plaintext:   plain.fill,
		member:      s.principals[0],
		sampleEvery: sampleEvery,
		operators:   s.operators(),
		log:         s.log,
		frameErrors: es.FrameErrors,
		sheds:       es.Sheds,
		auditShed:   s.gw.Stats().AuditShed,
	}
}
