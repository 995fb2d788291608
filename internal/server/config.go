// Package server is the simulator's long-running-service workload plane:
// an open-loop key-value/analytics request stream served by one rt.Session
// of any runtime kind, with the latency-SLO machinery a real service would
// carry — per-request deadlines, a bounded admission queue that sheds load
// when the projected queue delay exceeds the deadline, retry with
// exponential backoff on degraded responses, and GC-pause-aware latency
// accounting. The whole plane runs on the simulated clock: arrivals,
// backoffs, and deadlines are virtual time, so two runs under the same
// seed are byte-identical.
package server

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/carv-repro/teraheap-go/internal/rt"
	"github.com/carv-repro/teraheap-go/internal/simclock"
	"github.com/carv-repro/teraheap-go/internal/vm"
)

// Config describes one serve run. The zero value is not runnable; start
// from DefaultConfig (what ParseConfig does) and override via the DSL.
type Config struct {
	// Seed keys every workload decision (key popularity, op mix, churn).
	Seed uint64
	// RatePerSec is the open-loop arrival rate in requests per simulated
	// second. Arrivals do not wait for responses: when the server falls
	// behind (a GC pause, a device brownout), the backlog grows and the
	// admission queue starts shedding.
	RatePerSec float64
	// Requests is the number of primary arrivals (retries ride on top).
	Requests int
	// Clients is the client-ID population; session state churns over it.
	Clients int
	// Keys is the keyspace size of the KV store.
	Keys int
	// ZipfS is the key-popularity skew (P(k) ∝ 1/(k+1)^s).
	ZipfS float64
	// ValueWords is the payload size of one value, in heap words.
	ValueWords int
	// Deadline is the per-request latency SLO.
	Deadline time.Duration
	// QueueDepth bounds the admission queue: a request arriving behind
	// more than QueueDepth waiting requests is shed.
	QueueDepth int
	// MaxRetries bounds client retries of a degraded response; Backoff is
	// the first retry's delay, doubling per attempt.
	MaxRetries int
	Backoff    time.Duration
	// ReadFrac and ScanFrac split the op mix (the remainder are writes);
	// ScanLen is the keys touched per scan.
	ReadFrac float64
	ScanFrac float64
	ScanLen  int
	// ChurnProb is the per-request probability that the client's session
	// is torn down and rebuilt (allocation pressure from session state).
	ChurnProb float64
	// HotFrac is the fraction of store shards kept hot in H1; the rest
	// are tagged and advised to H2 (no-op on runtimes without one).
	HotFrac float64
	// Kinds restricts a serve sweep to a subset of runtime kinds, by
	// registry name (rt.KindNames). Empty means every registered kind.
	// The DSL form is colon-separated — kinds=ps:th:g1+th — because "+"
	// is itself part of the g1+th name.
	Kinds []string
}

// DefaultConfig is the base serve configuration: a 4096-key store with
// Zipf-0.99 key popularity, 1.2M clients, 80/10/10 read/scan/write, a
// 2ms deadline, and a 64-deep admission queue.
func DefaultConfig() Config {
	return Config{
		Seed:       1,
		RatePerSec: 60000,
		Requests:   20000,
		Clients:    1200000,
		Keys:       4096,
		ZipfS:      0.99,
		ValueWords: 64,
		Deadline:   2 * time.Millisecond,
		QueueDepth: 64,
		MaxRetries: 3,
		Backoff:    200 * time.Microsecond,
		ReadFrac:   0.8,
		ScanFrac:   0.1,
		ScanLen:    16,
		ChurnProb:  0.002,
		HotFrac:    0.25,
	}
}

// keysPerShard fixes the store's shard fan-out: each shard is one ref
// array of this many value slots.
const keysPerShard = 64

// Shards returns the store's shard count.
func (c Config) Shards() int {
	n := (c.Keys + keysPerShard - 1) / keysPerShard
	if n < 1 {
		n = 1
	}
	return n
}

// StoreBytes estimates the store's resident size (shard directories plus
// values), used by experiment sizing to place the working set relative to
// the heap.
func (c Config) StoreBytes() int64 {
	const headerBytes = int64(vm.HeaderWords * vm.WordSize)
	valBytes := int64(c.ValueWords)*vm.WordSize + headerBytes
	shardBytes := int64(keysPerShard)*vm.WordSize + headerBytes
	return int64(c.Keys)*valBytes + int64(c.Shards())*shardBytes
}

// Interarrival converts the arrival rate into the open-loop interarrival
// gap, going through the simclock guard so a malformed rate can never
// produce a negative or NaN-derived duration.
func (c Config) Interarrival() (time.Duration, error) {
	d, err := simclock.DurationFromSeconds(1 / c.RatePerSec)
	if err != nil {
		return 0, fmt.Errorf("server: rate=%g: %w", c.RatePerSec, err)
	}
	return d, nil
}

// Validate checks every knob's range. It is called by ParseConfig and
// again by Run, so a hand-built Config cannot bypass the guards.
func (c Config) Validate() error {
	if _, err := c.Interarrival(); err != nil {
		return err
	}
	if c.Requests < 1 || c.Requests > 50_000_000 {
		return fmt.Errorf("server: reqs=%d: want 1..50000000", c.Requests)
	}
	if c.Clients < 1 {
		return fmt.Errorf("server: clients=%d: want >= 1", c.Clients)
	}
	if c.Keys < 1 || c.Keys > 1<<22 {
		return fmt.Errorf("server: keys=%d: want 1..%d", c.Keys, 1<<22)
	}
	// NaN fails every comparison, so test validity, not invalidity.
	if !(c.ZipfS > 0 && c.ZipfS <= 8) {
		return fmt.Errorf("server: zipf=%g: want a finite skew in (0,8]", c.ZipfS)
	}
	if c.ValueWords < 1 || c.ValueWords > 1<<16 {
		return fmt.Errorf("server: vwords=%d: want 1..%d", c.ValueWords, 1<<16)
	}
	if c.Deadline <= 0 {
		return fmt.Errorf("server: deadline=%v: want > 0", c.Deadline)
	}
	if c.QueueDepth < 1 || c.QueueDepth > 1<<20 {
		return fmt.Errorf("server: queue=%d: want 1..%d", c.QueueDepth, 1<<20)
	}
	if c.MaxRetries < 0 || c.MaxRetries > 16 {
		return fmt.Errorf("server: retries=%d: want 0..16", c.MaxRetries)
	}
	if c.Backoff <= 0 {
		return fmt.Errorf("server: backoff=%v: want > 0", c.Backoff)
	}
	if !(c.ReadFrac >= 0 && c.ReadFrac <= 1) {
		return fmt.Errorf("server: reads=%g: want a fraction in [0,1]", c.ReadFrac)
	}
	if !(c.ScanFrac >= 0 && c.ScanFrac <= 1) {
		return fmt.Errorf("server: scan=%g: want a fraction in [0,1]", c.ScanFrac)
	}
	if c.ReadFrac+c.ScanFrac > 1 {
		return fmt.Errorf("server: reads=%g scan=%g: fractions sum past 1", c.ReadFrac, c.ScanFrac)
	}
	if c.ScanLen < 1 || c.ScanLen > keysPerShard {
		return fmt.Errorf("server: scanlen=%d: want 1..%d", c.ScanLen, keysPerShard)
	}
	if !(c.ChurnProb >= 0 && c.ChurnProb <= 1) {
		return fmt.Errorf("server: churn=%g: want a probability in [0,1]", c.ChurnProb)
	}
	if !(c.HotFrac >= 0 && c.HotFrac <= 1) {
		return fmt.Errorf("server: hot=%g: want a fraction in [0,1]", c.HotFrac)
	}
	seenKind := make(map[string]bool)
	for _, n := range c.Kinds {
		if _, ok := rt.KindByName(n); !ok {
			return fmt.Errorf("server: kinds=%s: unknown kind %q (valid: %s)",
				strings.Join(c.Kinds, ":"), n, strings.Join(rt.KindNames(), " "))
		}
		if seenKind[n] {
			return fmt.Errorf("server: kinds=%s: duplicate kind %q",
				strings.Join(c.Kinds, ":"), n)
		}
		seenKind[n] = true
	}
	return nil
}

// String renders the config in the DSL accepted by ParseConfig, every key
// in fixed order — the canonical form, so ParseConfig(c.String()) round
// trips exactly.
func (c Config) String() string {
	s := fmt.Sprintf(
		"seed=%d,rate=%g,reqs=%d,clients=%d,keys=%d,zipf=%g,vwords=%d,deadline=%s,queue=%d,retries=%d,backoff=%s,reads=%g,scan=%g,scanlen=%d,churn=%g,hot=%g",
		c.Seed, c.RatePerSec, c.Requests, c.Clients, c.Keys, c.ZipfS, c.ValueWords,
		c.Deadline, c.QueueDepth, c.MaxRetries, c.Backoff,
		c.ReadFrac, c.ScanFrac, c.ScanLen, c.ChurnProb, c.HotFrac)
	// kinds is rendered only when set, so legacy configs round trip to the
	// exact legacy canonical string.
	if len(c.Kinds) > 0 {
		s += ",kinds=" + strings.Join(c.Kinds, ":")
	}
	return s
}

// ParseConfig parses the comma-separated key=value serve-config DSL used
// by teraheap-bench's serve subcommand:
//
//	seed=N        workload PRNG seed (default 1)
//	rate=R        open-loop arrival rate, requests per simulated second
//	reqs=N        primary request count
//	clients=N     client-ID population
//	keys=N        KV keyspace size
//	zipf=S        key-popularity skew in (0,8]
//	vwords=N      value payload, heap words
//	deadline=DUR  per-request latency SLO (e.g. 2ms)
//	queue=N       admission queue depth
//	retries=N     client retry budget per request (0 disables retries)
//	backoff=DUR   first retry backoff, doubling per attempt
//	reads=F       read fraction of the op mix
//	scan=F        scan fraction (remainder are writes)
//	scanlen=N     keys touched per scan (1..64)
//	churn=F       per-request session-churn probability
//	hot=F         fraction of store shards kept hot in H1
//	kinds=A:B:C   restrict the sweep to these runtime kinds (colon
//	              separated registry names, e.g. kinds=ps:th:g1+th)
//
// Unknown keys, duplicate keys, malformed values, and out-of-range knobs
// are errors, mirroring fault.ParsePlan: a sweep that silently ignored a
// typo would measure something other than what was written.
func ParseConfig(s string) (Config, error) {
	c := DefaultConfig()
	seen := make(map[string]bool)
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("server: %q is not key=value", kv)
		}
		if seen[key] {
			return c, fmt.Errorf("server: duplicate config key %q (in token %q)", key, kv)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
		case "rate":
			c.RatePerSec, err = parseFinite(val)
		case "reqs":
			c.Requests, err = strconv.Atoi(val)
		case "clients":
			c.Clients, err = strconv.Atoi(val)
		case "keys":
			c.Keys, err = strconv.Atoi(val)
		case "zipf":
			c.ZipfS, err = parseFinite(val)
		case "vwords":
			c.ValueWords, err = strconv.Atoi(val)
		case "deadline":
			c.Deadline, err = time.ParseDuration(val)
		case "queue":
			c.QueueDepth, err = strconv.Atoi(val)
		case "retries":
			c.MaxRetries, err = strconv.Atoi(val)
		case "backoff":
			c.Backoff, err = time.ParseDuration(val)
		case "reads":
			c.ReadFrac, err = parseFinite(val)
		case "scan":
			c.ScanFrac, err = parseFinite(val)
		case "scanlen":
			c.ScanLen, err = strconv.Atoi(val)
		case "churn":
			c.ChurnProb, err = parseFinite(val)
		case "hot":
			c.HotFrac, err = parseFinite(val)
		case "kinds":
			c.Kinds = strings.Split(val, ":")
		default:
			return c, fmt.Errorf("server: unknown config key %q (valid: seed, rate, reqs, clients, keys, zipf, vwords, deadline, queue, retries, backoff, reads, scan, scanlen, churn, hot, kinds)", key)
		}
		if err != nil {
			return c, fmt.Errorf("server: bad %s=%s: %w", key, val, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

func parseFinite(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, fmt.Errorf("want a finite number")
	}
	return f, nil
}
