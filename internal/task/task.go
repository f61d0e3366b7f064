// Package task implements Capybara's software interface (paper §4): a
// Chain-style task-based intermittent programming model with
// non-volatile channels, extended with the declarative energy-mode
// annotations config, burst, and preburst.
//
// A program is a set of named tasks; control flows from task to task at
// nexttask statements (the Next return value). A task executes
// atomically with respect to power: if the energy buffer empties
// mid-task, the device powers off, recharges, reboots, and restarts the
// task from the beginning. Writes to non-volatile channels are staged
// during execution and committed atomically at the task transition, so
// restarts are safe (Chain/Alpaca semantics).
//
// The package deliberately separates the programming model from power
// policy: an Engine executes a Program on a sim.Device, delegating all
// charging and reconfiguration decisions to a PowerManager. The
// Capybara runtime, the fixed-capacity baseline, and the
// continuous-power baseline are PowerManagers in internal/core.
package task

import (
	"fmt"
	"sort"

	"capybara/internal/device"
	"capybara/internal/sim"
	"capybara/internal/units"
)

// EnergyMode names an energy mode — an identifier that the hardware
// designer maps to a reservoir configuration (paper §3: "an identifier
// that corresponds to the specific amount of capacitance required to
// execute the task").
type EnergyMode string

// ModeNone marks an absent annotation.
const ModeNone EnergyMode = ""

// Next is the name of the task control transfers to; Halt ends the
// program.
type Next string

// Halt stops the program.
const Halt Next = ""

// Fn is a task body. It must be restart-safe: all durable effects go
// through the Ctx channel operations, which commit only when the task
// completes.
type Fn func(ctx *Ctx) Next

// Task is one function-like task with its energy-mode annotations.
// At most one of the annotation groups should be set: Config for
// ordinary capacity/temporal constraints, Burst for pre-charged
// reactive tasks, and the Preburst pair for tasks that charge a future
// burst ahead of time.
type Task struct {
	Name string

	// Config corresponds to the `configure mode` annotation: execute
	// this task on the reservoir configuration for the mode.
	Config EnergyMode
	// Burst corresponds to `burst mode`: re-activate the pre-charged
	// banks of the mode and execute immediately, without a charge pause.
	Burst EnergyMode
	// PreburstBurst and PreburstExec correspond to
	// `preburst burst=bmode exec=emode`: charge bmode's banks ahead of
	// time, then execute this task in emode.
	PreburstBurst EnergyMode
	PreburstExec  EnergyMode

	Run Fn
}

// Program is a validated set of tasks with an entry point.
type Program struct {
	Entry string
	tasks map[string]*Task
}

// NewProgram validates and assembles a program.
func NewProgram(entry string, tasks ...*Task) (*Program, error) {
	p := &Program{Entry: entry, tasks: make(map[string]*Task, len(tasks))}
	for _, t := range tasks {
		if t.Name == "" {
			return nil, fmt.Errorf("task: unnamed task")
		}
		if t.Run == nil {
			return nil, fmt.Errorf("task: %s has no body", t.Name)
		}
		if _, dup := p.tasks[t.Name]; dup {
			return nil, fmt.Errorf("task: duplicate task %s", t.Name)
		}
		if (t.PreburstBurst == ModeNone) != (t.PreburstExec == ModeNone) {
			return nil, fmt.Errorf("task: %s has half a preburst annotation", t.Name)
		}
		p.tasks[t.Name] = t
	}
	if _, ok := p.tasks[entry]; !ok {
		return nil, fmt.Errorf("task: entry task %q not defined", entry)
	}
	return p, nil
}

// MustProgram is NewProgram for statically-known programs.
func MustProgram(entry string, tasks ...*Task) *Program {
	p, err := NewProgram(entry, tasks...)
	if err != nil {
		panic(err)
	}
	return p
}

// Task looks a task up by name.
func (p *Program) Task(name string) (*Task, bool) {
	t, ok := p.tasks[name]
	return t, ok
}

// Names lists the program's tasks in sorted order.
func (p *Program) Names() []string {
	names := make([]string, 0, len(p.tasks))
	// order-independent: collects the names, sorted below.
	for n := range p.tasks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PowerManager decides how the device prepares for each task: which
// reservoir configuration to use, when to pause and charge, and how to
// recover after a power failure.
type PowerManager interface {
	// Prepare readies the device to run t. alive reports whether the
	// device is currently on; when false the manager must bring it up
	// (charge + boot). Prepare returns false when the deadline passed
	// before the device became ready — the engine then stops.
	Prepare(t *Task, alive bool, deadline units.Seconds) bool
}

// Engine executes a Program on a Device under a PowerManager.
type Engine struct {
	Dev  *sim.Device
	Prog *Program
	PM   PowerManager
	// Restarts counts task restarts caused by power failures.
	Restarts int
	// Profile accumulates per-task execution measurements — the §3
	// "measure task energy consumption on continuous power" harness.
	Profile map[string]*TaskProfile

	// ctx is the reusable execution context (reset per attempt) and
	// curTask the interned current-task name: a long sweep runs millions
	// of task attempts, so per-attempt context and name allocations
	// dominated the profile.
	ctx     Ctx
	curTask string
	// curT memoizes the *Task for curTask: sample loops revisit the
	// same task millions of times, and the name-keyed map lookup was a
	// measurable slice of the scheduler iteration. curProf caches
	// curT's Profile entry: reset when curT changes and filled when an
	// attempt of curT is credited, so no entry is created ahead of an
	// attempt.
	curT    *Task
	curProf *TaskProfile
	// curGen/curValid validate curTask against the NV store's write
	// counter: the durable pointer can only move when NV is written, so
	// between writes the blob read (a map lookup per scheduler
	// iteration) is skipped entirely.
	curGen   int
	curValid bool

	// powered reports whether the device is on between two task
	// attempts. It lives on the engine, not in a run's locals, so a run
	// that RunUntil stopped at a mark continues without bringing the
	// device up again. A power failure, or a power manager that gives
	// up, clears it.
	powered bool
}

// TaskProfile is one task's accumulated execution cost.
type TaskProfile struct {
	// Runs counts successful completions; Failures counts attempts
	// ended by a power failure.
	Runs, Failures int
	// Time and Energy accumulate over successful runs: active time and
	// energy drawn from storage.
	Time   units.Seconds
	Energy units.Energy
}

// State is a value copy of an Engine's run state: the restart count,
// every profile entry and whether the device is powered between two
// attempts. The device saves its own state.
type State struct {
	Restarts int
	Powered  bool
	Profile  []ProfileEntry
}

// ProfileEntry is one task's Profile entry in a State.
type ProfileEntry struct {
	Task string
	TaskProfile
}

// Save returns a copy of the engine's run state.
func (e *Engine) Save() State {
	st := State{Restarts: e.Restarts, Powered: e.powered}
	if len(e.Profile) > 0 {
		st.Profile = make([]ProfileEntry, 0, len(e.Profile))
	}
	// order-independent: Restore puts the entries back into a map.
	for name, p := range e.Profile {
		st.Profile = append(st.Profile, ProfileEntry{Task: name, TaskProfile: *p})
	}
	return st
}

// Restore makes st the engine's run state: Profile holds exactly st's
// entries afterwards. It drops the current-task cache, which keys on
// the NV store's write counter that a restore of the store rewinds.
func (e *Engine) Restore(st *State) {
	e.Restarts, e.powered = st.Restarts, st.Powered
	clear(e.Profile)
	for _, p := range st.Profile {
		tp := p.TaskProfile
		e.Profile[p.Task] = &tp
	}
	e.curT, e.curProf, e.curValid = nil, nil, false
}

// MeanPower returns the task's average draw across successful runs.
func (p *TaskProfile) MeanPower() units.Power {
	if p.Time <= 0 {
		return 0
	}
	return units.Power(float64(p.Energy) / float64(p.Time))
}

// MeanTime returns the average successful run duration.
func (p *TaskProfile) MeanTime() units.Seconds {
	if p.Runs == 0 {
		return 0
	}
	return p.Time / units.Seconds(p.Runs)
}

// MeanEnergy returns the average successful run energy.
func (p *TaskProfile) MeanEnergy() units.Energy {
	if p.Runs == 0 {
		return 0
	}
	return p.Energy / units.Energy(p.Runs)
}

// NewEngine assembles an engine.
func NewEngine(dev *sim.Device, prog *Program, pm PowerManager) *Engine {
	return &Engine{Dev: dev, Prog: prog, PM: pm, Profile: make(map[string]*TaskProfile)}
}

// profile returns the current task's Profile entry, creating it on
// first use.
func (e *Engine) profile() *TaskProfile {
	if e.curProf != nil {
		return e.curProf
	}
	p, ok := e.Profile[e.curT.Name]
	if !ok {
		p = &TaskProfile{}
		e.Profile[e.curT.Name] = p
	}
	e.curProf = p
	return p
}

// The NV key holding the current task name — the runtime's
// power-failure-robust state machine pointer (§4.3).
const nvCurrentTask = "__task.current"

// CurrentTask returns the durable current-task pointer, defaulting to
// the program entry.
func (e *Engine) CurrentTask() string {
	// The pointer lives in NV, so it cannot move unless NV was written;
	// the store's write counter validates the cached copy. Tight sample
	// loops with self-transitions never touch NV between iterations, so
	// the blob read drops out of the scheduler's hot path.
	gen := e.Dev.NV.Writes()
	if e.curValid && gen == e.curGen {
		return e.curTask
	}
	name := e.Prog.Entry
	if b, ok := e.Dev.NV.PeekBlob(nvCurrentTask); ok {
		// Neither the []byte→string comparison nor the map index below
		// allocates; interning the name against the program's task table
		// keeps the re-read alloc-free across transitions.
		switch {
		case e.curTask != "" && e.curTask == string(b):
			name = e.curTask
		default:
			if t, ok := e.Prog.tasks[string(b)]; ok {
				name = t.Name
			} else {
				name = string(b)
			}
		}
	}
	e.curTask, e.curGen, e.curValid = name, gen, true
	return name
}

// Run executes the program until the simulated clock reaches horizon,
// the program halts, or the power manager gives up (e.g. the source
// died for good). It returns an error only for malformed transitions.
// It continues a run RunUntil stopped.
func (e *Engine) Run(horizon units.Seconds) error {
	_, err := e.RunUntil(horizon, horizon)
	return err
}

// RunUntil executes the program as Run(deadline) does, and the power
// manager sees deadline in every Prepare, but it returns once the
// simulated clock reaches stop between two task attempts. more reports
// that it stopped there, before deadline, with the program still
// running. A later RunUntil with the same deadline then continues the
// run exactly where it stopped: the attempt sequence, and with it every
// statistic, is the one a single Run(deadline) produces, since stopping
// changes no deadline and the device stays powered across the calls.
func (e *Engine) RunUntil(stop, deadline units.Seconds) (more bool, err error) {
	for {
		// A segment that is not done ended in a power failure mid-task:
		// volatile state (the staged writes) is lost, and the next
		// segment restarts the task from scratch once the power manager
		// has brought the device back up.
		if done, more, err := e.runSegment(stop, deadline); done {
			return more, err
		}
	}
}

// powerFailure is the internal control-flow signal for a brownout
// mid-operation. It never escapes the package (Effective Go's
// "internal panic, external error" rule).
type powerFailure struct{}

// runSegment runs task attempts back to back until a power failure
// ends one (done is false; the failure has been credited) or RunUntil
// is finished (done is true). more is RunUntil's: the clock reached
// stop before deadline.
//
// A brownout unwinds the task body with a powerFailure panic from the
// Ctx operation that hit it. One deferred recover per segment, rather
// than one per attempt, takes the defer off the attempt path: a
// self-looping sense task runs about a million attempts per lifecycle
// and fails a few thousand times. This is sound because nothing
// between two attempts depends on which attempt ran in which segment:
// the loop carries no local across attempts, and each attempt begins
// from the engine's fields (powered among them) and the device.
func (e *Engine) runSegment(stop, deadline units.Seconds) (done, more bool, err error) {
	// inBody is set while a task body (the current task's) executes:
	// only a body's Ctx operations raise powerFailure, so a panic from
	// anywhere else, such as the power manager or a commit, is not ours.
	inBody := false
	defer func() {
		if !inBody {
			return
		}
		r := recover()
		if _, ok := r.(powerFailure); !ok {
			panic(r)
		}
		e.powered = false
		e.Restarts++
		e.profile().Failures++
	}()
	for e.Dev.Now() < stop {
		name := e.CurrentTask()
		t := e.curT
		if t == nil || t.Name != name {
			var ok bool
			t, ok = e.Prog.Task(name)
			if !ok {
				return true, false, fmt.Errorf("task: transition to undefined task %q", name)
			}
			e.curT, e.curProf = t, nil
		}
		if !e.PM.Prepare(t, e.powered, deadline) {
			e.powered = false
			return true, false, nil // deadline reached while preparing
		}
		e.powered = true
		ctx := newCtx(e, t.Name)
		timeBefore := e.Dev.Stats.TimeOn
		energyBefore := e.Dev.Stats.EnergyDrawn
		inBody = true
		next := t.Run(ctx)
		inBody = false
		prof := e.profile()
		prof.Runs++
		prof.Time += e.Dev.Stats.TimeOn - timeBefore
		prof.Energy += e.Dev.Stats.EnergyDrawn - energyBefore
		if ctx.staged() {
			ctx.commit()
		}
		if next == Halt {
			e.Dev.NV.Delete(nvCurrentTask)
			return true, false, nil
		}
		// Self-transitions need no validation (the running task is by
		// construction defined) and leave the durable pointer untouched:
		// the stored name is already correct, and skipping the write
		// keeps tight sample loops free of per-iteration blob
		// allocations.
		if string(next) != name {
			if _, ok := e.Prog.Task(string(next)); !ok {
				return true, false, fmt.Errorf("task: %s transitioned to undefined task %q", t.Name, next)
			}
			e.Dev.NV.SetBlob(nvCurrentTask, []byte(next))
		}
	}
	return true, e.Dev.Now() < deadline, nil
}

// Ctx is the execution context a task body runs against. All operations
// consume simulated time and buffered energy; any of them may terminate
// the task with a power failure, after which the task restarts.
type Ctx struct {
	eng *Engine

	// Staged writes live in small association slices, not maps: a task
	// attempt stages a handful of keys at most, so a linear scan beats
	// hashing, and resetting between attempts is a length truncation
	// instead of four map clears (which dominated the per-attempt cost
	// in fleet profiles). A key appears in at most one of words/blobs
	// versus del (staging a write unstages a delete and vice versa).
	stagedWords []kvWord
	stagedBlobs []kvBlob
	stagedDel   []string
	stagedChans []kvChan

	// floats is FloatSeries' decode buffer and spare the encode buffer
	// SetFloats stages, both kept across attempts so a sliding window
	// (TA's series: read, push, trim, write back) allocates nothing per
	// attempt. spare passes to the staged write when used; commit
	// refills it with the blob that write displaces from NV.
	floats []float64
	spare  []byte

	// taskName is the executing task, used to address its channels.
	taskName string
}

// kvWord, kvBlob, and kvChan are the staged-write association entries.
type kvWord struct {
	k string
	v uint64
}

type kvBlob struct {
	k string
	b []byte
}

type kvChan struct {
	dst, field string
	v          uint64
}

// newCtx resets and returns the engine's reusable execution context.
// The staged-write slices are retained across attempts (truncated, not
// reallocated): most task attempts in a long sweep stage only a handful
// of keys, and per-attempt context resets dominated the engine's
// profile. It stores eng and taskName only when they change: a pointer
// store pays the write barrier while the collector is marking, and most
// attempts re-run the same task on the same engine. (The compiler turns
// each s = s[:0] into a length store, which needs no barrier.)
func newCtx(e *Engine, taskName string) *Ctx {
	c := &e.ctx
	if c.eng != e {
		c.eng = e
	}
	if c.taskName != taskName {
		c.taskName = taskName
	}
	c.stagedWords = c.stagedWords[:0]
	c.stagedBlobs = c.stagedBlobs[:0]
	c.stagedDel = c.stagedDel[:0]
	c.stagedChans = c.stagedChans[:0]
	return c
}

// Now returns the simulated time.
func (c *Ctx) Now() units.Seconds {
	return c.eng.Dev.Now()
}

// drain consumes active time or dies trying.
func (c *Ctx) drain(load units.Power, dt units.Seconds) {
	if dt <= 0 {
		return
	}
	if _, ok := c.eng.Dev.Drain(load, dt); !ok {
		panic(powerFailure{})
	}
}

// Compute executes ops ALU operations.
func (c *Ctx) Compute(ops float64) {
	c.drain(c.eng.Dev.MCU.ActivePower, c.eng.Dev.MCU.ComputeTime(ops))
}

// Sleep idles in a retentive low-power mode for dt. The power system's
// quiescent draw continues.
func (c *Ctx) Sleep(dt units.Seconds) {
	c.drain(c.eng.Dev.MCU.SleepPower, dt)
}

// Sample powers p up (warm-up) and performs one atomic operation. It
// returns the time at which the operation began — the instant the
// sensor observed the world.
func (c *Ctx) Sample(p device.Peripheral) units.Seconds {
	load := p.ActivePower + c.eng.Dev.MCU.ActivePower
	c.drain(load, p.Warmup)
	at := c.Now()
	c.drain(load, p.OpTime)
	return at
}

// Activate powers p up (warm-up) and holds it active for dur — e.g.
// keeping the gesture sensor observing for the remainder of a swing.
// It returns the time the active phase began.
func (c *Ctx) Activate(p device.Peripheral, dur units.Seconds) units.Seconds {
	load := p.ActivePower + c.eng.Dev.MCU.ActivePower
	c.drain(load, p.Warmup)
	at := c.Now()
	c.drain(load, dur)
	return at
}

// SampleBurst warms p up once and performs n back-to-back operations,
// returning each operation's start time. CSR's 32 distance samples are
// one SampleBurst.
func (c *Ctx) SampleBurst(p device.Peripheral, n int) []units.Seconds {
	load := p.ActivePower + c.eng.Dev.MCU.ActivePower
	c.drain(load, p.Warmup)
	times := make([]units.Seconds, 0, n)
	for i := 0; i < n; i++ {
		times = append(times, c.Now())
		c.drain(load, p.OpTime)
	}
	return times
}

// Transmit starts the radio stack and sends one packet with the given
// payload size. It returns the time the packet finished transmitting
// (when a sniffer would receive it).
func (c *Ctx) Transmit(r device.Radio, payloadBytes int) units.Seconds {
	load := r.TxPower + c.eng.Dev.MCU.ActivePower
	c.drain(load, r.StartupTime)
	c.drain(load, r.PacketTime(payloadBytes))
	return c.Now()
}

// Non-volatile channel operations. Reads see this task's own staged
// writes first (Alpaca-style privatization), then committed state.
// Writes are staged and commit only when the task completes.

// unstageDel removes key from the staged-delete set (a write
// supersedes a prior staged delete).
func (c *Ctx) unstageDel(key string) {
	for i, k := range c.stagedDel {
		if k == key {
			c.stagedDel[i] = c.stagedDel[len(c.stagedDel)-1]
			c.stagedDel = c.stagedDel[:len(c.stagedDel)-1]
			return
		}
	}
}

func (c *Ctx) stagedDeleted(key string) bool {
	for _, k := range c.stagedDel {
		if k == key {
			return true
		}
	}
	return false
}

// SetWord stages a durable word write.
func (c *Ctx) SetWord(key string, v uint64) {
	for i := range c.stagedWords {
		if c.stagedWords[i].k == key {
			c.stagedWords[i].v = v
			return
		}
	}
	c.stagedWords = append(c.stagedWords, kvWord{key, v})
	c.unstageDel(key)
}

// Word reads a durable word.
func (c *Ctx) Word(key string) (uint64, bool) {
	if c.stagedDeleted(key) {
		return 0, false
	}
	for i := range c.stagedWords {
		if c.stagedWords[i].k == key {
			return c.stagedWords[i].v, true
		}
	}
	return c.eng.Dev.NV.Word(key)
}

// WordOr reads a durable word with a default.
func (c *Ctx) WordOr(key string, def uint64) uint64 {
	if v, ok := c.Word(key); ok {
		return v
	}
	return def
}

// SetFloat stages a durable float write.
func (c *Ctx) SetFloat(key string, v float64) { c.SetWord(key, floatBits(v)) }

// FloatOr reads a durable float with a default.
func (c *Ctx) FloatOr(key string, def float64) float64 {
	if v, ok := c.Word(key); ok {
		return floatFromBits(v)
	}
	return def
}

// AppendFloat stages an append to a durable series.
func (c *Ctx) AppendFloat(key string, v float64) {
	// An already-staged blob is owned by this Ctx (staging always copies
	// out of NV first), so repeated appends within one task body grow it
	// in place instead of copying the whole series each time.
	for i := range c.stagedBlobs {
		if c.stagedBlobs[i].k == key {
			c.stagedBlobs[i].b = appendFloatInPlace(c.stagedBlobs[i].b, v)
			return
		}
	}
	cur := c.blobView(key)
	c.setBlob(key, appendFloatBytes(cur, v))
}

// FloatSeries reads a durable series including staged appends. The
// result is the context's decode buffer: it is valid until the next
// FloatSeries call, and its spare capacity lets the caller append a
// value (a sliding window's push) without reallocating.
func (c *Ctx) FloatSeries(key string) []float64 {
	c.floats = decodeFloats(c.floats, c.blobView(key))
	return c.floats
}

// SetFloats stages a durable series wholesale — used to keep bounded
// sliding windows (e.g. TA's "most recent time series").
func (c *Ctx) SetFloats(key string, vals []float64) {
	b := c.spare[:0]
	c.spare = nil
	if cap(b) < len(vals)*8 {
		b = make([]byte, 0, len(vals)*8)
	}
	for _, v := range vals {
		b = appendFloatInPlace(b, v)
	}
	c.setBlob(key, b)
}

func (c *Ctx) setBlob(key string, b []byte) {
	for i := range c.stagedBlobs {
		if c.stagedBlobs[i].k == key {
			c.stagedBlobs[i].b = b
			return
		}
	}
	c.stagedBlobs = append(c.stagedBlobs, kvBlob{key, b})
	c.unstageDel(key)
}

// Delete stages removal of a durable key.
func (c *Ctx) Delete(key string) {
	for i := range c.stagedWords {
		if c.stagedWords[i].k == key {
			c.stagedWords[i] = c.stagedWords[len(c.stagedWords)-1]
			c.stagedWords = c.stagedWords[:len(c.stagedWords)-1]
			break
		}
	}
	for i := range c.stagedBlobs {
		if c.stagedBlobs[i].k == key {
			c.stagedBlobs[i] = c.stagedBlobs[len(c.stagedBlobs)-1]
			c.stagedBlobs = c.stagedBlobs[:len(c.stagedBlobs)-1]
			break
		}
	}
	if !c.stagedDeleted(key) {
		c.stagedDel = append(c.stagedDel, key)
	}
}

func (c *Ctx) blobView(key string) []byte {
	if c.stagedDeleted(key) {
		return nil
	}
	for i := range c.stagedBlobs {
		if c.stagedBlobs[i].k == key {
			return c.stagedBlobs[i].b
		}
	}
	// The view is read-only and never outlives the staging step (every
	// consumer either decodes it or copies it before staging), so the
	// aliasing read is safe and saves a copy per access.
	b, _ := c.eng.Dev.NV.PeekBlob(key)
	return b
}

// staged reports whether the attempt staged any write; Run skips
// commit for the many attempts that stage none.
func (c *Ctx) staged() bool {
	return len(c.stagedWords)+len(c.stagedBlobs)+len(c.stagedDel)+len(c.stagedChans) > 0
}

// commit applies the staged writes to non-volatile memory in one
// atomic step (Chain commits channel writes at the task transition).
// Each key space commits in sorted key order, so the NV write sequence
// — and with it the write counter and every downstream determinism
// guarantee — is independent of staging order.
func (c *Ctx) commit() {
	if len(c.stagedDel) > 0 {
		sortKeys(c.stagedDel)
		for _, k := range c.stagedDel {
			c.eng.Dev.NV.Delete(k)
		}
	}
	if n := len(c.stagedWords); n > 0 {
		// Insertion sort: commits stage a handful of keys, below the
		// threshold where sort.Slice's indirection pays.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && c.stagedWords[j].k < c.stagedWords[j-1].k; j-- {
				c.stagedWords[j], c.stagedWords[j-1] = c.stagedWords[j-1], c.stagedWords[j]
			}
		}
		for i := range c.stagedWords {
			c.eng.Dev.NV.SetWord(c.stagedWords[i].k, c.stagedWords[i].v)
		}
	}
	if n := len(c.stagedBlobs); n > 0 {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && c.stagedBlobs[j].k < c.stagedBlobs[j-1].k; j-- {
				c.stagedBlobs[j], c.stagedBlobs[j-1] = c.stagedBlobs[j-1], c.stagedBlobs[j]
			}
		}
		for i := range c.stagedBlobs {
			// Ownership of the staged slice moves to NV: the next
			// newCtx truncates the staged entries before anything can
			// touch them again. The blob it displaces is no longer
			// referenced (PeekBlob views do not outlive a write), so
			// the larger of it and spare becomes the next encode buffer.
			old := c.eng.Dev.NV.SetBlobOwned(c.stagedBlobs[i].k, c.stagedBlobs[i].b)
			if cap(old) > cap(c.spare) {
				c.spare = old[:0]
			}
		}
	}
	c.commitChans()
}

// sortKeys orders a commit key set; singletons (the common case for
// tight sample loops) skip the sort machinery.
func sortKeys(keys []string) {
	if len(keys) > 1 {
		sort.Strings(keys)
	}
}
