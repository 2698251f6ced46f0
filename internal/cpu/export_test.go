package cpu

// LoopOnly makes c's functional runs execute every instruction in the
// interpreter loop, never in its leaf core.
func LoopOnly(c *CPU) { c.loopOnly = true }

// RecordWork is what the replay cache did in a run (replay.go).
type RecordWork struct {
	Activations uint64 // detailed exception entries that could replay
	Recorded    uint64 // forward runs that made a recording
	Refused     uint64 // forward runs refused, the BADVA stored ineligible
	Steps       uint64 // instructions the forward runs executed
	Replays     uint64 // activations replayed, or checked under ReplayCheck
}

// Work reports c's replay-cache counts.
func (c *CPU) Work() RecordWork {
	w := c.rp.work
	return RecordWork{w.activations, w.recorded, w.refused, w.steps, w.replays}
}

// CorruptReplay plants a fault in one compiled stream of every
// recording compiled so far, and reports how many it changed: "bp"
// adds a taken branch to the first predictor Transfer, "load" one
// access to the first load run, and "record" makes the kept predecoded
// record of the word at BADVA an illegal instruction.
func CorruptReplay(c *CPU, stream string) int {
	n := 0
	for _, rec := range c.rp.byBadva {
		if rec == &ineligible {
			continue
		}
		switch stream {
		case "bp":
			if len(rec.bp) == 0 {
				continue
			}
			rec.bp[0].Add(true)
		case "load":
			if len(rec.loads) == 0 {
				continue
			}
			rec.loads[0].n++
		case "record":
			badva, line := rec.c0In[5], c.IC.LineBase(rec.c0In[5])
			k, hit := 0, false
			for i := 0; i < len(rec.swic) && !hit; {
				h := int(rec.swic[i])
				if h&1 != 0 {
					if c.IC.LineBase(rec.swic[i+1]) == line {
						rec.recs[k+int(badva>>2)&(c.wpl-1)].op = pIllegal
						hit = true
					}
					k += c.wpl
				}
				i += 1 + h&^1
			}
			if !hit {
				continue
			}
		}
		n++
	}
	return n
}
