package engine

import "ccs/internal/obs"

// Per-kind artifact cache telemetry on the default registry. A request
// is one accessor call; a derivation means both the in-memory tier and
// the persistent store missed; a store hit means the persistent tier
// saved the derivation. Hit rate per kind is
// (requests - derived) / requests, with store_hits splitting out how
// much of that the persistent tier contributed.
type artMetrics struct {
	req      *obs.Counter
	derived  *obs.Counter
	storeHit *obs.Counter
}

func newArtMetrics(kind string) artMetrics {
	r := obs.Default()
	return artMetrics{
		req:      r.CounterVec("ccs_engine_artifact_requests_total", "Artifact accessor calls, by kind.", "kind").With(kind),
		derived:  r.CounterVec("ccs_engine_artifacts_derived_total", "Artifacts computed fresh (every cache tier missed), by kind.", "kind").With(kind),
		storeHit: r.CounterVec("ccs_engine_artifact_store_hits_total", "Artifact derivations avoided by a persistent-store hit, by kind.", "kind").With(kind),
	}
}

// amSig counts the signature records of quotients.
var (
	amSig    = newArtMetrics("signature")
	amStrong = newArtMetrics("strong")
	amWeak   = newArtMetrics("weak")
	amCong   = newArtMetrics("cong")
)

// pairDecisions counts the pair queries settled on cached quotients by
// what settled them, keyed by the solve span's decided-by value:
// "signature" (the quotients' records differ), "isomorphism" (the one
// candidate bijection was checked), "partition" (a partition solve on
// the union of the quotients), "kequiv" or "failures" (the subset walk of
// a trace, ≈_k or failure pair the records leave open) or "simulation".
var pairDecisions = func() map[string]*obs.Counter {
	v := obs.Default().CounterVec("ccs_engine_pair_decisions_total",
		"Pair queries settled on cached quotients, by what decided them.", "by")
	m := map[string]*obs.Counter{}
	for _, by := range []string{"signature", "isomorphism", "partition", "kequiv", "failures", "simulation"} {
		m[by] = v.With(by)
	}
	return m
}()
