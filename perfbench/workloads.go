package main

import (
	"fmt"
	"time"

	"dltprivacy/internal/middleware"
)

// Topology shared by every workload: two client connections over the host
// loopback, four channels, two ordering shards.
const (
	numConns    = 2
	numChannels = 4
	numShards   = 2
	// acceptLoops is cmd/gateway's -acceptloops default.
	acceptLoops = 4
)

// servedStages is the cmd/gateway -listen serve pipeline.
const servedStages = "session(reqauth=mac,revokecheck=resolve,ttl=10m,idle=5m)|authn|encrypt(keyttl=5m)|audit(observer=gateway-op)"

// groupSealStages is the served pipeline plus the async audit ring and the
// group-sealing batch stage.
const groupSealStages = "session(reqauth=mac,revokecheck=resolve,ttl=10m,idle=5m)|authn|encrypt(keyttl=5m)|audit(observer=gateway-op,auditasync=4096)|batch(size=64,groupseal=on)"

// spec describes one workload. window is the number of closed-loop
// submitters per connection, each with one operation in flight. Each
// sub-run issues a fixed number of transactions: windowOps in its timed
// window, after windowOps/warmupShare of warm-up; windowOps is sized to
// a window of about 2.5 s on a 2-core machine.
type spec struct {
	name       string
	why        string
	stages     string
	payload    int    // plaintext bytes per transaction, op id included
	codec      string // wire and envelope codec: middleware.CodecBinary or CodecJSON
	replicas   int    // 0: solo shards; >= 3: ordering.NewReplicatedShard
	window     int
	principals int // enrolled in set-up; every one joins every channel
	churn      bool
	killEvery  time.Duration // failover: one leader kill per interval
	windowOps  int
}

const warmupShare = 5

// subRunOps is the transactions a sub-run issues, warm-up included.
func (s spec) subRunOps() int { return s.windowOps + s.warmupOps() }

func (s spec) warmupOps() int { return s.windowOps / warmupShare }

// submitters is the closed-loop concurrency of the workload.
func (s spec) submitters() int { return numConns * s.window }

var specs = []spec{
	{
		name:       "edge-mac",
		why:        "served fast path: 96 B payloads, so edge framing, wire decode, MAC resolve and the per-request seal dominate",
		stages:     servedStages,
		payload:    96,
		codec:      middleware.CodecBinary,
		window:     4,
		principals: 2,
		windowOps:  100000,
	},
	{
		name:       "edge-groupseal",
		why:        "batch path: 1 KiB payloads sealed 64 to a group with one AEAD and one ordering submit, so per-byte work dominates",
		stages:     groupSealStages,
		payload:    1024,
		codec:      middleware.CodecBinary,
		window:     4,
		principals: 2,
		windowOps:  120000,
	},
	{
		name:       "edge-groupseal-json",
		why:        "edge-groupseal over the JSON codec, whose decode copies the payload out of the edge's read buffer",
		stages:     groupSealStages,
		payload:    1024,
		codec:      middleware.CodecJSON,
		window:     4,
		principals: 2,
		windowOps:  120000,
	},
	{
		name:       "session-churn",
		why:        "short sessions: signed handshake, 4 MAC submits, close, cycling over principals; the session write side",
		stages:     servedStages,
		payload:    96,
		codec:      middleware.CodecBinary,
		window:     2,
		principals: 8,
		churn:      true,
		windowOps:  30000,
	},
	{
		name:       "failover",
		why:        "edge-mac traffic over 3-replica shards with a leader kill every 50 ms; replication per tx and elections dominate",
		stages:     servedStages,
		payload:    96,
		codec:      middleware.CodecBinary,
		replicas:   3,
		window:     4,
		principals: 2,
		killEvery:  50 * time.Millisecond,
		windowOps:  80000,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

func channelName(i int) string { return fmt.Sprintf("deals-%d", i) }

func principalName(i int) string { return fmt.Sprintf("org-%02d", i) }
