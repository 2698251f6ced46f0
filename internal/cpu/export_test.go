package cpu

// Replays reports how many handler activations the CPU replayed from a
// recording (or, under ReplayCheck, checked against one).
func (c *CPU) Replays() uint64 { return c.rp.replays }
