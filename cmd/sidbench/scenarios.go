package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/scenario"
)

// runScenarios executes the golden regression corpus. With update=true the
// golden files are rewritten (review the diff before committing!);
// otherwise each run is checked against the committed golden and any
// out-of-tolerance metric is reported. only, when non-empty, restricts the
// sweep to the named scenario. journalDir, when non-empty, attaches a fresh
// observability collector per scenario and streams its event journal to
// <journalDir>/<name>.jsonl, ending with an embedded metrics snapshot —
// render it with sidwatch.
func runScenarios(goldenDir string, update bool, journalDir, only string) error {
	if journalDir != "" {
		if err := os.MkdirAll(journalDir, 0o755); err != nil {
			return err
		}
	}
	drift := 0
	matched := false
	// The adversarial family keeps its own golden subdirectory so the two
	// corpora can be refreshed and reviewed independently.
	for _, c := range []struct {
		specs []scenario.Spec
		dir   string
	}{
		{scenario.Corpus(), goldenDir},
		{scenario.AdversarialCorpus(), scenario.AdversarialGoldenDir(goldenDir)},
	} {
		d, m, err := runCorpus(c.specs, c.dir, update, journalDir, only)
		if err != nil {
			return err
		}
		drift += d
		matched = matched || m
	}
	if only != "" && !matched {
		return fmt.Errorf("no scenario named %q in either corpus", only)
	}
	if drift > 0 {
		return fmt.Errorf("%d metric(s) drifted outside tolerance", drift)
	}
	return nil
}

// runCorpus executes one golden family against its directory, returning the
// drift count and whether any scenario matched the -only filter.
func runCorpus(specs []scenario.Spec, goldenDir string, update bool, journalDir, only string) (int, bool, error) {
	drift := 0
	matched := false
	for _, spec := range specs {
		if only != "" && spec.Name != only {
			continue
		}
		matched = true
		var col *obs.Collector
		var sink *os.File
		if journalDir != "" {
			var err error
			sink, err = os.Create(filepath.Join(journalDir, spec.Name+".jsonl"))
			if err != nil {
				return drift, matched, err
			}
			j := obs.NewJournal(obs.DefaultJournalCap)
			j.SetSink(sink)
			col = obs.New()
			col.SetJournal(j)
		}
		res, err := scenario.RunWithCollector(spec, col)
		if err != nil {
			return drift, matched, err
		}
		if col != nil {
			// Close the journal with the final counter state so sidwatch can
			// print radio totals without a live registry.
			col.Emit(spec.Duration, obs.KindMetrics, col.Registry().Snapshot())
			if err := col.Journal().Err(); err != nil {
				return drift, matched, fmt.Errorf("journal %s: %w", spec.Name, err)
			}
			if err := sink.Close(); err != nil {
				return drift, matched, err
			}
			fmt.Printf("  wrote journal %s (%d events)\n",
				filepath.Join(journalDir, spec.Name+".jsonl"), col.Journal().Total())
		}
		fmt.Printf("%-14s clusters %d, cancelled %d, false confirms %d, node reports %d\n",
			res.Name, res.ClustersFormed, res.Cancelled, res.FalseConfirms, len(res.NodeReports))
		for _, sh := range res.Ships {
			line := fmt.Sprintf("  %-12s true %5.1f kn @ %6.1f°, sweep [%5.1f, %5.1f]s:",
				sh.Name, sh.TrueSpeedKn, sh.TrueHeadingDeg, sh.SweepStart, sh.SweepEnd)
			if !sh.Detected {
				fmt.Printf("%s MISSED\n", line)
				continue
			}
			fmt.Printf("%s %d confirm(s), C %.3f", line, sh.Confirms, sh.BestC)
			if sh.HasSpeed {
				fmt.Printf(", est %.1f kn @ %.1f° (err %.0f%%, %.1f°)",
					sh.SpeedKn, sh.HeadingDeg, 100*sh.SpeedErrFrac, sh.HeadingErrDeg)
			}
			fmt.Println()
		}
		if update {
			if err := scenario.WriteGolden(goldenDir, res); err != nil {
				return drift, matched, err
			}
			fmt.Printf("  wrote %s\n", scenario.GoldenPath(goldenDir, res.Name))
			continue
		}
		want, err := scenario.LoadGolden(goldenDir, spec.Name)
		if err != nil {
			return drift, matched, fmt.Errorf("no golden for %q (run with -update to create): %w", spec.Name, err)
		}
		for _, viol := range scenario.Diff(want, res) {
			fmt.Printf("  DRIFT: %s\n", viol)
			drift++
		}
	}
	return drift, matched, nil
}
