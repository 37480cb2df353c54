package server

import (
	"fmt"
	"time"

	"weboftrust"
)

// DefaultLandmarks is the landmark-hub count when Options.Landmarks is 0.
// Sketches cost one full propagation per landmark per algorithm to build
// and O(L·U) memory to hold, so the default stays small; selection takes
// the top EigenTrust hubs, which carry most propagation mass (Pavlovic),
// so returns diminish quickly beyond a handful.
const DefaultLandmarks = 16

// landmarkState is a state's landmark sketches: the L top-ranked hubs'
// full propagation vectors, one set per algorithm, backing the
// `?approx=landmark` serving mode. Like the anomaly scores, each builds
// on first use — the L full traversals stay off the boot path — or in
// the warm after a swap publishes, when the predecessor wanted it (see
// Server.Swap). The landmark selection derives from the state's own
// cold rank vector, so it — and therefore every served sketch — is a
// function of the model alone.
type landmarkState struct {
	// count is the configured landmark count; 0 disables the mode (the
	// `?approx=landmark` queries answer 400) and leaves ids and algos nil.
	count int
	// ids is the landmark selection, derived from the state's rank vector.
	ids *lazy[[]int32]
	// algos holds one sketch per PropagationAlgo.
	algos [3]*lazy[*weboftrust.LandmarkSketch]
}

// size is the landmark count /v1/stats and /metrics report: the
// configured count until the selection is derived, its length after. It
// only peeks, so a scrape never forces the selection (and with it the
// rank solve).
func (ls *landmarkState) size() int {
	if ids, ok := ls.ids.peek(); ok {
		return len(ids)
	}
	return ls.count
}

// landmarkCount resolves Options.Landmarks: 0 means the default,
// negative disables.
func (s *Server) landmarkCount() int {
	if s.opts.Landmarks < 0 {
		return 0
	}
	if s.opts.Landmarks == 0 {
		return DefaultLandmarks
	}
	return s.opts.Landmarks
}

// lazyLandmarks builds the landmark state for st: the selection derives
// from st's rank vector on first use (forcing the cold rank solve if
// nobody has), and each algorithm's sketch builds on its first
// `?approx=landmark` query.
func (s *Server) lazyLandmarks(st *state) *landmarkState {
	ls := &landmarkState{count: s.landmarkCount()}
	if ls.count == 0 {
		return ls
	}
	model := st.model
	ls.ids = newLazy(func() []int32 {
		return weboftrust.SelectLandmarkIDs(st.rank.get().vec, ls.count)
	})
	for a := range ls.algos {
		algo := weboftrust.PropagationAlgo(a)
		ls.algos[a] = newLazy(func() *weboftrust.LandmarkSketch {
			start := time.Now()
			sk, err := model.BuildLandmarkSketch(algo, ls.ids.get())
			if err != nil {
				// The ids are range-checked by selection and the algo is
				// one of ours; an error is a broken invariant.
				panic(fmt.Sprintf("server: landmark sketch %v: %v", algo, err))
			}
			s.metrics.landmarkBuilds.Add(1)
			s.metrics.landmarkBuildNanos.Add(time.Since(start).Nanoseconds())
			return sk
		})
	}
	return ls
}
