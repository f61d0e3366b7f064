package task

import (
	"fmt"
	"sort"
)

// This file implements Chain's channel abstraction (Colin & Lucia,
// OOPSLA 2016) on top of the engine's commit machinery. A channel
// CH(src, dst) carries named fields from one task to another; a
// multi-input read resolves to the most recently committed write among
// the named source channels.
//
// Chain semantics differ from the Ctx's flat Word/Float operations
// (which are Alpaca-style: reads see the task's own staged writes):
// a ChanIn never observes the current execution's own ChanOut — it sees
// only committed values, so a restarted task always reads the same
// inputs it read on its first attempt. Both styles are restart-safe;
// the channel style additionally makes data flow between tasks explicit
// and supports Chain's latest-writer-wins multi-input resolution.

// chanKey builds the NV key for a channel field; chanVerKey its commit
// version.
func chanKey(src, dst, field string) string {
	return fmt.Sprintf("__chan.%s.%s.%s", src, dst, field)
}

func chanVerKey(src, dst, field string) string {
	return fmt.Sprintf("__chanver.%s.%s.%s", src, dst, field)
}

// nvCommitVersion is the global commit counter key.
const nvCommitVersion = "__task.commitver"

// ChanOut stages a write of field with value v on the channel from the
// current task to dst. The write commits atomically with the task
// transition; a power failure discards it.
func (c *Ctx) ChanOut(dst, field string, v uint64) {
	for i := range c.stagedChans {
		if c.stagedChans[i].dst == dst && c.stagedChans[i].field == field {
			c.stagedChans[i].v = v
			return
		}
	}
	c.stagedChans = append(c.stagedChans, kvChan{dst, field, v})
}

// ChanOutFloat is ChanOut for float64 values.
func (c *Ctx) ChanOutFloat(dst, field string, v float64) {
	c.ChanOut(dst, field, floatBits(v))
}

// ChanIn reads field from the channels (src → current task) for every
// src, returning the most recently committed write (Chain's
// multi-input resolution). The second result reports whether any
// source has ever written the field. Unlike Word, ChanIn never sees
// the current execution's own staged writes.
func (c *Ctx) ChanIn(field string, srcs ...string) (uint64, bool) {
	if c.probe {
		return c.probeWord, c.probeWord != 0
	}
	nv := c.eng.Dev.NV
	var best uint64
	var bestVer uint64
	found := false
	for _, src := range srcs {
		v, ok := nv.Word(chanKey(src, c.taskName, field))
		if !ok {
			continue
		}
		ver, _ := nv.Word(chanVerKey(src, c.taskName, field))
		if !found || ver > bestVer {
			best, bestVer, found = v, ver, true
		}
	}
	return best, found
}

// ChanInOr reads like ChanIn with a default.
func (c *Ctx) ChanInOr(def uint64, field string, srcs ...string) uint64 {
	if v, ok := c.ChanIn(field, srcs...); ok {
		return v
	}
	return def
}

// ChanInFloat is ChanIn for float64 values.
func (c *Ctx) ChanInFloat(def float64, field string, srcs ...string) float64 {
	if v, ok := c.ChanIn(field, srcs...); ok {
		return floatFromBits(v)
	}
	return def
}

// Self reads the current task's self-channel: the value this task
// committed on a *previous* execution (Chain's loop-carried state).
func (c *Ctx) Self(field string) (uint64, bool) {
	return c.ChanIn(field, c.taskName)
}

// SelfOut writes the current task's self-channel.
func (c *Ctx) SelfOut(field string, v uint64) {
	c.ChanOut(c.taskName, field, v)
}

// commitChans applies staged channel writes with a fresh commit
// version. Called from commit().
func (c *Ctx) commitChans() {
	if len(c.stagedChans) == 0 {
		return
	}
	nv := c.eng.Dev.NV
	ver := nv.WordOr(nvCommitVersion, 0) + 1
	nv.SetWord(nvCommitVersion, ver)

	s := c.stagedChans
	sort.Slice(s, func(i, j int) bool {
		if s[i].dst != s[j].dst {
			return s[i].dst < s[j].dst
		}
		return s[i].field < s[j].field
	})
	for i := range s {
		nv.SetWord(chanKey(c.taskName, s[i].dst, s[i].field), s[i].v)
		nv.SetWord(chanVerKey(c.taskName, s[i].dst, s[i].field), ver)
	}
}
