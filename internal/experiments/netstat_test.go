package experiments

import (
	"strings"
	"testing"

	"stfw/internal/telemetry"
)

// TestBuildNetstatReportRejects: a snapshot whose spans do not cover the
// plan stage for stage — from a mismatched child build, or a run with the
// registry not attached — or that carries no traced replay to divide the
// busy time by, must be refused, not priced against the model.
func TestBuildNetstatReportRejects(t *testing.T) {
	cfg := NetstatConfig{K: 4, Dim: 2, Iters: 1, Dests: 2, Bytes: 8}
	span := func(stage int32) telemetry.Span {
		return telemetry.Span{Kind: telemetry.KDeliver, Stage: stage, Start: 100, Dur: 50}
	}
	for _, c := range []struct {
		name  string
		spans []telemetry.Span
		want  string
	}{
		{"stage outside the plan", []telemetry.Span{span(0), span(1), span(2)}, "stage 2 outside the 2-stage plan"},
		{"stage with no spans", []telemetry.Span{span(0)}, "no spans recorded for stage 1"},
		{"spans without a traced replay", []telemetry.Span{span(0), span(1)}, "traced no replay"},
	} {
		snap := telemetry.Snapshot{Ranks: []telemetry.RankSnapshot{{Rank: 0, Spans: c.spans}}}
		_, err := BuildNetstatReport(cfg, snap)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
