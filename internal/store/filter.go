package store

import (
	"fmt"
	"strconv"
	"strings"

	"weboftrust/internal/ratings"
	"weboftrust/internal/shard"
)

// FilterBySource returns the subsequence of a log's events that a
// source-filtered export keeps. Structural events — categories, users,
// objects, reviews — always survive: they define the dense ID spaces
// (user i, review j) that every later event and every consumer indexes
// by, so dropping any of them would renumber the world. Only the
// per-source ACTION events are filtered: a rating goes with its rater, a
// trust edge with its origin. The result is a log whose replay yields
// the same users/objects/reviews but only the chosen sources' opinions.
//
// The returned slice shares the input's backing array when everything is
// kept; callers must treat the input as consumed.
func FilterBySource(events []Event, keep func(ratings.UserID) bool) []Event {
	out := events[:0]
	for _, ev := range events {
		switch ev.Kind {
		case EvAddRating, EvAddTrust:
			if !keep(ev.User) {
				continue
			}
		}
		out = append(out, ev)
	}
	return out
}

// ParseUserFilter interprets a -users spec shared by every source-
// filtered export (`trustctl exportlog`, `trustctl attack -export-log`):
// "i/N" selects the sources the cluster's consistent hash assigns shard
// i — so a filtered log replays exactly the opinions that shard owns —
// otherwise a comma-separated list of explicit user ids. The returned
// description names the selection for log lines.
func ParseUserFilter(spec string) (func(ratings.UserID) bool, string, error) {
	if strings.Contains(spec, "/") {
		sp, err := shard.Parse(spec)
		if err != nil {
			return nil, "", err
		}
		return func(u ratings.UserID) bool { return sp.Owns(int(u)) },
			fmt.Sprintf("shard %s", sp), nil
	}
	ids := make(map[ratings.UserID]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.Atoi(part)
		if err != nil || id < 0 {
			return nil, "", fmt.Errorf("bad user id %q in -users", part)
		}
		ids[ratings.UserID(id)] = true
	}
	if len(ids) == 0 {
		return nil, "", fmt.Errorf("-users %q selects no users", spec)
	}
	return func(u ratings.UserID) bool { return ids[u] },
		fmt.Sprintf("%d listed users", len(ids)), nil
}

// DatasetEvents renders a dataset as its event stream by appending it to
// an in-memory log and reading that back — one serialisation path, no
// second enumeration of the dataset's contents to drift from it.
func DatasetEvents(d *ratings.Dataset) ([]Event, error) {
	var buf strings.Builder
	lw := NewLogWriter(&buf)
	if err := AppendDataset(lw, d); err != nil {
		return nil, err
	}
	events, _, err := ReadLogFrom(strings.NewReader(buf.String()), 0)
	return events, err
}
