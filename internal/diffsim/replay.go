package diffsim

// Replay oracle: the lockstep machines step one instruction at a time,
// which never replays a recorded handler activation (internal/cpu
// replay.go), so each compressed image also runs whole, twice, in a
// small I-cache that makes lines fault again: once replaying and once
// under ReplayCheck, which interprets every activation and checks it
// against its recording. Both must end in the same machine — core
// state, memory and bus counters, caches and predictor.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/fastpath"
	"repro/internal/program"
)

// replayICacheBytes is the replay oracle's I-cache: generated programs
// fit the default one, where no line faults twice, and most fit 1 KB.
const replayICacheBytes = 256

// checkReplay runs every compressed image both ways. It returns the
// first divergence ("" = none) and the index of its image.
func checkReplay(images []*program.Image, base cpu.Config) (string, int) {
	cfg := base
	cfg.PredecodeCheck = false
	cfg.MaxInstr = functionalBudget
	cfg.ICache.SizeBytes = min(cfg.ICache.SizeBytes, replayICacheBytes)
	for img, im := range images {
		if im.Compress == nil {
			continue
		}
		got, err := replayState(im, cfg, false)
		if err != nil {
			return "replay: replaying run: " + err.Error(), img
		}
		want, err := replayState(im, cfg, true)
		if err != nil {
			return "replay: interpreted run: " + err.Error(), img
		}
		if !bytes.Equal(got, want) {
			return "replay: replaying run leaves a machine the interpreted run does not", img
		}
	}
	return "", -1
}

// replayState runs im to its exit and returns the machine's
// checkpoint, its configuration left out.
func replayState(im *program.Image, cfg cpu.Config, check bool) ([]byte, error) {
	cfg.ReplayCheck = check
	c, err := cpu.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := c.Load(im); err != nil {
		return nil, err
	}
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	ck := fastpath.Capture(c, nil)
	ck.Config = cpu.Config{}
	b, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %v", err)
	}
	return b, nil
}
