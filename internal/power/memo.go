package power

import (
	"math"

	"capybara/internal/units"
)

// Charge-solve memoization.
//
// Fleet workloads re-solve the same closed-form charge segments millions
// of times: periodic sources (PWM, diurnal gating) and cyclic device
// lifecycles revisit a small set of (store fingerprint, source level,
// V-start, V-target) combinations. A segment solve is a pure function of
// those inputs plus the booster configuration — time enters only through
// the source output, which is constant within a segment by contract — so
// the solve can be cached under an exact key with no loss of fidelity.
//
// Soundness: keys are exact float64 tuples (never quantized or
// interpolated) covering every value chargeSegment reads, and an entry
// stores the segment's phase-boundary trajectory as produced by a
// dt-unbounded walk of the same phase logic. Replaying an entry performs
// the same floating-point operations in the same order as the direct
// solver for any dt, so a cache hit yields bit-identical results to a
// recompute — memo-on and memo-off runs produce byte-identical outputs
// (see TestMemoBitIdentical and the experiment golden tests).
//
// Scope: the cache only engages below the cold-start threshold. A warm
// store charges through the started booster alone — a single
// closed-form phase — so a direct solve is cheaper than a hash lookup
// and the memoized path would only add overhead. Cold-start segments
// cross up to three path boundaries (bypass ceiling, threshold,
// started-booster limit), each costing a source sample and a
// closed-form solve, and periodic workloads (PWM, diurnal gating)
// revisit the same few trajectories every cycle — that is where
// replaying wins.

// segConfig is the booster-configuration part of the memo key: every
// System parameter the segment solver reads. Two Systems with equal
// segConfigs compute identical segments, so a cache may be shared across
// devices (fleet shards share one cache per worker).
//
// All key fields are stored as IEEE-754 bit patterns rather than
// float64s: a struct of uint64s hashes as one flat memory block
// (aeshash over 96 bytes) instead of field-by-field float hashing,
// which shows up hard in charge-solve profiles. Bitwise keying also has
// the right cache semantics — it distinguishes nothing the solver
// doesn't (two bit-identical inputs run the identical float ops), and
// unlike float equality it never lets a NaN key miss itself forever.
type segConfig struct {
	eff     uint64
	coldEff uint64
	coldV   uint64
	minSrcV uint64
	bypass  uint64
	drop    uint64
}

// fb converts any float64-based quantity to its memo-key bit pattern.
func fb[T ~float64](x T) uint64 { return math.Float64bits(float64(x)) }

func (s *System) segConfig() segConfig {
	cfg := segConfig{
		eff:     fb(s.In.Efficiency),
		coldEff: fb(s.In.ColdStartEfficiency),
		coldV:   fb(s.In.ColdStart),
		minSrcV: fb(s.In.MinSourceVoltage),
		drop:    fb(s.Bypass.Drop),
	}
	if s.Bypass.Enabled {
		cfg.bypass = 1
	}
	return cfg
}

// segKey identifies one constant-power segment solve exactly. The
// booster configuration participates as an interned index rather than
// inline: interning is injective (see SegmentCache.internConfig), so
// the key remains exact while the hashed struct shrinks from 104 to 56
// bytes — segment lookups sit on the charge path's hottest line.
type segKey struct {
	cfg    uint32
	c      uint64
	rated  uint64
	raw    uint64
	srcV   uint64
	v0     uint64
	target uint64
}

// segMaxPhases bounds the recorded trajectory. A segment crosses at most
// three charge-path boundaries (bypass ceiling, cold-start threshold,
// started-booster limit); anything longer indicates a configuration the
// recorder does not understand and is left uncached.
const segMaxPhases = 4

// segPhase is one constant-power stretch of the trajectory: starting at
// voltage v, power p applies until the store reaches limit after need
// seconds.
type segPhase struct {
	v     units.Voltage
	p     units.Power
	limit units.Voltage
	need  units.Seconds
}

// segTerm labels how the trajectory ends after its recorded phases.
type segTerm uint8

const (
	// termTarget: the final phase reaches the requested target.
	termTarget segTerm = iota
	// termParked: the store reaches its rated ceiling (or starts there);
	// the rest of any segment is dead air.
	termParked
	// termDead: no charge power flows (source too weak for the path in
	// effect); the voltage holds for the whole segment.
	termDead
	// termOpen: charging continues at constant power with no voltage
	// bound (no target, no rating, above cold start).
	termOpen
)

// segEntry is one memoized trajectory.
type segEntry struct {
	phases [segMaxPhases]segPhase
	n      uint8
	term   segTerm
	termV  units.Voltage // termOpen: phase start voltage
	termP  units.Power   // termOpen: phase power
}

// recordSegment walks the charge-path phases from v0 with no time bound,
// mirroring chargeSegment's phase selection exactly. It reports false
// when the trajectory exceeds segMaxPhases (left uncached).
func (s *System) recordSegment(c units.Capacitance, rated, v0, target units.Voltage, t units.Seconds) (segEntry, bool) {
	var e segEntry
	v := v0
	for {
		if target > 0 && v >= target {
			e.term = termTarget
			return e, true
		}
		if rated > 0 && v >= rated {
			e.term = termParked
			return e, true
		}
		p := s.ChargePower(v, t)
		if p <= 0 {
			e.term = termDead
			return e, true
		}
		limit := target
		if rated > 0 && (limit <= 0 || rated < limit) {
			limit = rated
		}
		if v < s.In.ColdStart {
			b := s.In.ColdStart
			if s.Bypass.Enabled {
				if bc := s.bypassCeiling(t); bc > v && bc < b {
					b = bc
				}
			}
			if limit <= 0 || b < limit {
				limit = b
			}
		}
		if limit <= 0 {
			e.term = termOpen
			e.termV = v
			e.termP = p
			return e, true
		}
		if int(e.n) == len(e.phases) {
			return e, false
		}
		e.phases[e.n] = segPhase{v: v, p: p, limit: limit,
			need: units.TimeToCharge(c, v, limit, p)}
		e.n++
		v = limit
	}
}

// replay answers a dt-bounded segment query from the recorded
// trajectory, performing the same floating-point operations the direct
// solver would: whole phases advance by their exact need and snap to
// their exact limit; a phase cut short by dt ends at
// ChargeVoltageAfter(c, phaseStart, p, remain) with the identical
// arguments the direct partial step uses.
func (e *segEntry) replay(st Store, c units.Capacitance, dt units.Seconds) (units.Seconds, bool) {
	elapsed := units.Seconds(0)
	v := units.Voltage(-1) // sentinel: no voltage change yet
	for i := 0; i < int(e.n); i++ {
		ph := &e.phases[i]
		remain := dt - elapsed
		if remain <= 0 {
			// The direct loop exits on elapsed >= dt before touching the
			// store again.
			if v >= 0 {
				st.SetVoltage(v)
			}
			return dt, false
		}
		if ph.need <= remain {
			v = ph.limit
			elapsed += ph.need
			continue
		}
		st.SetVoltage(units.ChargeVoltageAfter(c, ph.v, ph.p, remain))
		return dt, false
	}
	switch e.term {
	case termTarget:
		if v >= 0 {
			st.SetVoltage(v)
		}
		return elapsed, true
	case termOpen:
		remain := dt - elapsed
		if remain <= 0 {
			if v >= 0 {
				st.SetVoltage(v)
			}
			return dt, false
		}
		st.SetVoltage(units.ChargeVoltageAfter(c, e.termV, e.termP, remain))
		return dt, false
	default: // termParked, termDead: the rest of the segment is dead air
		if v >= 0 {
			st.SetVoltage(v)
		}
		return dt, false
	}
}

// DefaultMemoEntries bounds a SegmentCache built with size <= 0.
const DefaultMemoEntries = 4096

// CacheStats reports a SegmentCache's effectiveness counters.
type CacheStats struct {
	// Hits and Misses count lookups answered from the cache and
	// trajectories recorded fresh, respectively.
	Hits, Misses uint64
	// Uncacheable counts solves that fell back to the direct solver
	// (trajectory longer than segMaxPhases).
	Uncacheable uint64
	// Entries is the number of trajectories currently retained.
	Entries int
}

// HitRate returns the fraction of lookups answered from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Add accumulates another cache's counters (fleet shards report one
// combined figure).
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Uncacheable += o.Uncacheable
	s.Entries += o.Entries
}

// SegmentCache memoizes charge-segment solves. It is bounded by a
// two-generation rotation (an approximate LRU): inserts land in the
// young generation, lookups that hit the old generation re-promote, and
// when the young generation fills, the old one — everything not touched
// since the last rotation — is dropped. Total retention never exceeds
// the configured entry bound.
//
// A cache is not safe for concurrent use; give each worker its own (the
// fleet engine recycles them through a sync.Pool). Sharing one cache
// across Systems or devices is sound: the key embeds every booster
// parameter the solver reads, and hits are bit-identical to recomputes,
// so cache state can never alter a result — only the hit counters vary
// with sharing.
type SegmentCache struct {
	max       int
	cur, prev map[segKey]*segEntry
	stats     CacheStats
	// cfgs interns the booster configurations seen by this cache; a
	// config's index is its segKey.cfg. The slice is tiny (one entry per
	// distinct booster tuning — heterogeneous fleets have a handful) and
	// last/lastID short-circuit the common case of consecutive solves
	// from the same System.
	cfgs   []segConfig
	last   segConfig
	lastID uint32
	warm   bool
}

// internConfig maps a booster configuration to its stable index in the
// cache, assigning one on first sight. Interning is injective — equal
// indices imply bitwise-equal configs — so keying on the index is as
// exact as keying on the config itself. The config is recomputed from
// the System every solve (it is six bit-casts), which keeps mutation of
// booster parameters between solves sound, unlike caching the key on
// the System would be.
func (m *SegmentCache) internConfig(cfg segConfig) uint32 {
	if m.warm && cfg == m.last {
		return m.lastID
	}
	id := uint32(0)
	for i := range m.cfgs {
		if m.cfgs[i] == cfg {
			id = uint32(i)
			goto found
		}
	}
	id = uint32(len(m.cfgs))
	m.cfgs = append(m.cfgs, cfg)
found:
	m.last, m.lastID, m.warm = cfg, id, true
	return id
}

// NewSegmentCache builds a cache bounded to at most max entries
// (<= 0 means DefaultMemoEntries).
func NewSegmentCache(max int) *SegmentCache {
	if max <= 0 {
		max = DefaultMemoEntries
	}
	if max < 2 {
		max = 2
	}
	// Maps start empty and grow to the working set: typical runs retain
	// far fewer trajectories than the bound, and fleets build one System
	// per device, so pre-sizing to the bound would dominate construction.
	return &SegmentCache{max: max, cur: make(map[segKey]*segEntry)}
}

// Stats returns the cache's counters.
func (m *SegmentCache) Stats() CacheStats {
	st := m.stats
	st.Entries = len(m.cur) + len(m.prev)
	return st
}

// Reset drops every entry and zeroes the counters.
func (m *SegmentCache) Reset() {
	clear(m.cur)
	m.prev = nil
	m.stats = CacheStats{}
	m.cfgs = nil
	m.warm = false
}

func (m *SegmentCache) get(k segKey) *segEntry {
	if e, ok := m.cur[k]; ok {
		m.stats.Hits++
		return e
	}
	if e, ok := m.prev[k]; ok {
		m.stats.Hits++
		m.put(k, e) // promote: recently-used entries survive rotation
		return e
	}
	m.stats.Misses++
	return nil
}

func (m *SegmentCache) put(k segKey, e *segEntry) {
	if len(m.cur) >= m.max/2 {
		m.prev = m.cur
		m.cur = make(map[segKey]*segEntry, len(m.prev))
	}
	m.cur[k] = e
}

// StepSegment advances st through exactly one analytic charge segment
// of length dt toward target, answering through the memo cache when one
// is attached and falling back to the direct closed-form solver
// otherwise. It returns the time consumed (dt unless the target was
// hit) and whether the target was reached. The contract matches
// chargeSegment: the caller must guarantee the source output is
// constant on [t, t+dt) — AdvanceCharge and TimeToChargeTo bound their
// iterations by segmentHorizon to establish it, and sim's charge loop
// passes its own source-change horizon through directly.
func (s *System) StepSegment(st Store, target units.Voltage, t, dt units.Seconds) (units.Seconds, bool) {
	m := s.Memo
	if m == nil {
		return s.chargeSegment(st, target, t, dt)
	}
	if dt <= 0 {
		return dt, false
	}
	v0 := st.Voltage()
	if target > 0 && v0 >= target {
		st.SetVoltage(target)
		return 0, true
	}
	// Warm store: above the cold-start threshold the started booster is
	// the only charge path and voltage only rises, so the segment is a
	// single closed-form phase — solving it directly is cheaper than
	// hashing it. The cache earns its keep below cold start, where
	// trajectories cross bypass-ceiling and threshold boundaries (several
	// source samples and closed-form solves each).
	if v0 >= s.In.ColdStart {
		return s.chargeSegment(st, target, t, dt)
	}
	// Dead air is the common case under gated sources (PWM off-phase,
	// night half of a diurnal cycle) and cheaper to answer inline than to
	// hash: mirror ChargePower's no-flow checks exactly.
	raw := s.Source.PowerAt(t)
	if raw <= 0 {
		return dt, false
	}
	srcV := s.Source.VoltageAt(t)
	if srcV < s.In.MinSourceVoltage {
		return dt, false
	}
	rated := ratedCeiling(st)
	c := st.Capacitance()
	key := segKey{cfg: m.internConfig(s.segConfig()), c: fb(c), rated: fb(rated),
		raw: fb(raw), srcV: fb(srcV), v0: fb(v0), target: fb(target)}
	e := m.get(key)
	if e == nil {
		fresh, cacheable := s.recordSegment(c, rated, v0, target, t)
		if !cacheable {
			m.stats.Uncacheable++
			return s.chargeSegment(st, target, t, dt)
		}
		e = &fresh
		m.put(key, e)
	}
	return e.replay(st, c, dt)
}
