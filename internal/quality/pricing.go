package quality

import (
	"asv/internal/core"
	"asv/internal/dataset"
	"asv/internal/stereo"
)

// Offline ladder pricing: replay a synthetic ground-truth sequence through
// every rung — the exact Step path the serving layer runs — and score each
// in MiddEval3-style bad-pixel rates and amortized arithmetic cost. The
// committed quality_ladder.json is this document at the default sizing
// (regenerate with `go run ./cmd/asveval -ladder quality_ladder.json`);
// EXPERIMENTS.md renders it as the quality-vs-throughput frontier.

// PriceConfig sizes a pricing run. The zero value prices at the evaluation
// default: 96×64 sceneflow-like frames, PW-4.
type PriceConfig struct {
	W      int
	H      int
	Frames int
	PW     int
	Seed   int64
	Preset string // "sceneflow" or "kitti"
}

func (pc PriceConfig) withDefaults() PriceConfig {
	if pc.W < 16 {
		pc.W = 96
	}
	if pc.H < 16 {
		pc.H = 64
	}
	if pc.Frames < 1 {
		pc.Frames = 12
	}
	if pc.PW < 1 {
		pc.PW = 4
	}
	if pc.Seed == 0 {
		pc.Seed = 9
	}
	if pc.Preset == "" {
		pc.Preset = "sceneflow"
	}
	return pc
}

// PricedRung is one rung's offline score, averaged over the sequence.
type PricedRung struct {
	Rung
	KeyRate float64 `json:"key_rate"`      // key frames / frames
	Bad1    float64 `json:"bad1"`          // % of GT-valid pixels with err > 1 px
	Bad3    float64 `json:"bad3"`          // % of GT-valid pixels with err > 3 px
	MMACs   float64 `json:"mmacs_per_frm"` // mean arithmetic cost, 1e6 MACs
}

// Pricing is the quality_ladder.json document: the ladder with each rung's
// measured accuracy and cost.
type Pricing struct {
	W      int          `json:"w"`
	H      int          `json:"h"`
	Frames int          `json:"frames"`
	PW     int          `json:"pw"`
	Seed   int64        `json:"seed"`
	Preset string       `json:"preset"`
	Rungs  []PricedRung `json:"rungs"`
}

// Price scores every rung of l against the dataset oracle: each rung
// replays the same synthetic sequence through Step (the serving path's
// degraded executor), so the committed prices are the accuracy a served
// stream pinned to that rung would actually deliver. top is the matcher the
// ladder's inheriting rungs run — pass the matcher the server is configured
// with.
func Price(l Ladder, top core.KeyMatcher, pc PriceConfig) (Pricing, error) {
	if err := l.Validate(); err != nil {
		return Pricing{}, err
	}
	pc = pc.withDefaults()
	var scene dataset.SceneConfig
	switch pc.Preset {
	case "kitti":
		scene = dataset.KITTILike(pc.W, pc.H, 1, pc.Seed)[0]
		scene.FrameCount = pc.Frames
	default:
		scene = dataset.SceneFlowLike(pc.W, pc.H, pc.Frames, pc.Seed)[0]
	}
	seq := dataset.Generate(scene)

	doc := Pricing{W: pc.W, H: pc.H, Frames: pc.Frames, PW: pc.PW, Seed: pc.Seed, Preset: pc.Preset}
	for _, r := range l {
		cfg := core.DefaultConfig()
		cfg.PW = pc.PW
		pipe := core.New(nil, cfg) // Step supplies the key matcher explicitly
		matcher := r.BuildMatcher(top)

		pr := PricedRung{Rung: r}
		keys := 0
		for _, fr := range seq.Frames {
			res := Step(pipe, r, matcher, fr.Left, fr.Right, nil)
			pr.Bad1 += stereo.ErrorRate(res.Disparity, fr.GT, 1.0)
			pr.Bad3 += stereo.ErrorRate(res.Disparity, fr.GT, 3.0)
			pr.MMACs += float64(res.MACs) / 1e6
			if res.IsKey {
				keys++
			}
		}
		n := float64(len(seq.Frames))
		pr.Bad1 /= n
		pr.Bad3 /= n
		pr.MMACs /= n
		pr.KeyRate = float64(keys) / n
		doc.Rungs = append(doc.Rungs, pr)
	}
	return doc, nil
}
