package asv

import (
	"asv/internal/quality"
)

// Quality-ladder facade: re-exports of internal/quality for commands and
// external users. The ladder unifies the matcher/fixed/PW/pyramid knobs
// into ordered operating points, priced offline into quality_ladder.json
// and served through overload by the ladder controller. See DESIGN.md §12.

// QualityLadder is an ordered list of rungs, most accurate first.
type QualityLadder = quality.Ladder

// LadderPricing is the quality_ladder.json document: every rung scored in
// bad-pixel rates and MMACs per frame against the dataset oracle.
type LadderPricing = quality.Pricing

// LadderPriceConfig sizes an offline pricing run.
type LadderPriceConfig = quality.PriceConfig

// DefaultQualityLadder returns the committed five-rung ladder.
func DefaultQualityLadder() QualityLadder { return quality.DefaultLadder() }

// PriceQualityLadder replays a synthetic ground-truth sequence through
// every rung of l — the same executor the serving layer runs — and returns
// the priced document. top is the matcher the ladder's inheriting rungs
// use (the one the server would be configured with).
func PriceQualityLadder(l QualityLadder, top KeyMatcher, pc LadderPriceConfig) (LadderPricing, error) {
	return quality.Price(l, top, pc)
}
