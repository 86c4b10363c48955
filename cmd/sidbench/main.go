// Command sidbench regenerates every table and figure of the paper's
// evaluation from the synthetic substrates and prints them in the paper's
// layout. See DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-vs-paper notes. It also drives a running sidserve end to end
// (-exp trace) and formats BENCH_baseline.json from captured benchmark
// output (-baseline).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/sid-wsn/sid/internal/eval"
	"github.com/sid-wsn/sid/internal/obs"
	"github.com/sid-wsn/sid/internal/scenario"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment to run: fig5,fig6,fig7,fig8,fig11,table1,table2,fig12,resilience,adversarial,scenarios,fleet,trace or all")
	trials := flag.Int("trials", 0, "override trial counts (0 = experiment defaults)")
	seed := flag.Int64("seed", 1, "base seed")
	baselineOut := flag.String("baseline", "", "instead of running anything, format this baseline file (BENCH_baseline.json) from the go test -bench and sidperf captures named as arguments")
	update := flag.Bool("update", false, "with -exp scenarios: rewrite the golden regression corpus")
	goldenDir := flag.String("golden", scenario.DefaultGoldenDir, "golden corpus directory (for -exp scenarios)")
	journalDir := flag.String("journal", "", "with -exp scenarios: write one JSONL event journal per scenario into this directory (render with sidwatch)")
	only := flag.String("only", "", "with -exp scenarios: run only the named scenario")
	httpAddr := flag.String("http", "", "serve /debug/pprof and /debug/vars on this address while running (e.g. localhost:6060)")
	serveAddr := flag.String("addr", "", "with -exp trace: the address of the running sidserve to drive (required, e.g. localhost:8080)")
	flag.Parse()

	if *baselineOut != "" {
		if err := writeBaseline(*baselineOut, flag.Args()); err != nil {
			fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *httpAddr != "" {
		srv, err := obs.Serve(*httpAddr, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "http: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/pprof and /debug/vars\n", srv.Addr())
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Printf("== %s ==\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	run("fig5", func() error {
		sc := eval.DefaultScenario()
		sc.Seed = *seed
		r, err := eval.Fig5(sc)
		if err != nil {
			return err
		}
		fmt.Printf("duration %.0fs, three-axis accelerometer (counts)\n", r.Duration)
		fmt.Printf("  x: mean %8.1f  std %6.1f  range [%6.1f, %6.1f]\n", r.X.Mean, r.X.Std, r.X.Min, r.X.Max)
		fmt.Printf("  y: mean %8.1f  std %6.1f  range [%6.1f, %6.1f]\n", r.Y.Mean, r.Y.Std, r.Y.Min, r.Y.Max)
		fmt.Printf("  z: mean %8.1f  std %6.1f  range [%6.1f, %6.1f]\n", r.Z.Mean, r.Z.Std, r.Z.Min, r.Z.Max)
		fmt.Printf("  paper: z oscillates around ~1000 counts (1 g), x/y around 0\n")
		return nil
	})

	run("fig6", func() error {
		sc := eval.DefaultScenario()
		sc.Seed = *seed
		r, err := eval.Fig6(sc)
		if err != nil {
			return err
		}
		fmt.Printf("2048-point STFT (40.96 s), sub-2 Hz band, %d trials\n", r.Trials)
		fmt.Printf("  mean peaks: no-ship %.1f, ship %.1f\n", r.MeanNoShipPeaks, r.MeanShipPeaks)
		fmt.Printf("  wake-band (%.3f Hz) peak present: ship %.0f%%, no-ship %.0f%%\n",
			r.WakeFreq, 100*r.WakeBandFracShip, 100*r.WakeBandFracQuiet)
		fmt.Printf("  wake-band energy ratio ship/quiet: %.1fx\n", r.MeanShipWakeBandEnergyRatio)
		fmt.Printf("  paper: single high peak without ship; multiple peaks / wide crests with ship\n")
		return nil
	})

	run("fig7", func() error {
		sc := eval.DefaultScenario()
		sc.Seed = *seed
		r, err := eval.Fig7(sc)
		if err != nil {
			return err
		}
		fmt.Printf("Morlet CWT scalogram of the ship passage\n")
		fmt.Printf("  power below 1 Hz during passage: %.1f%%\n", 100*r.LowBandFractionDuring)
		fmt.Printf("  passage/quiet power ratio: %.1fx, peak row %.3f Hz\n", r.BurstRatio, r.PeakFreq)
		fmt.Printf("  paper: ship waves focus on the low frequency spectrum\n")
		return nil
	})

	run("fig8", func() error {
		sc := eval.DefaultScenario()
		sc.Seed = *seed
		r, err := eval.Fig8(sc)
		if err != nil {
			return err
		}
		fmt.Printf("raw vs 1 Hz low-passed z signal\n")
		fmt.Printf("  std: raw %.1f -> filtered %.1f counts\n", r.RawStd, r.FilteredStd)
		fmt.Printf("  >1 Hz band power: raw %.2f -> filtered %.5f counts^2/Hz-integrated\n", r.HighBandPowerRaw, r.HighBandPowerFiltered)
		fmt.Printf("  wake disturbance peak / quiet std: %.1fx\n", r.DisturbanceRatio)
		return nil
	})

	run("fig11", func() error {
		cfg := eval.DefaultFig11Config()
		cfg.Scenario.Seed = *seed
		if *trials > 0 {
			cfg.Trials = *trials
		}
		pts, err := eval.Fig11(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("successful detection ratio vs anomaly frequency (%d trials/point)\n", cfg.Trials)
		fmt.Printf("%8s", "af\\M")
		for _, m := range cfg.Ms {
			fmt.Printf("%8.1f", m)
		}
		fmt.Println()
		for _, af := range cfg.AFs {
			fmt.Printf("%7.0f%%", af*100)
			for _, m := range cfg.Ms {
				for _, p := range pts {
					if p.M == m && p.AF == af {
						fmt.Printf("%8.2f", p.Ratio)
					}
				}
			}
			fmt.Println()
		}
		fmt.Printf("paper: ratio rises with af and M; ~0.70+ at M=2, af=60%%\n")
		return nil
	})

	run("table1", func() error {
		cfg := eval.DefaultTableConfig()
		cfg.Seed = *seed
		if *trials > 0 {
			cfg.Trials = *trials
		}
		cells, err := eval.Table1(cfg)
		if err != nil {
			return err
		}
		printTable("Table I: correlation coefficient WITHOUT ship intrusion", cfg, cells)
		fmt.Printf("paper: 0.019..0 falling with M and rows\n")
		return nil
	})

	run("table2", func() error {
		cfg := eval.DefaultTableConfig()
		cfg.Seed = *seed
		if *trials > 0 {
			cfg.Trials = *trials
		}
		cells, err := eval.Table2(cfg)
		if err != nil {
			return err
		}
		printTable("Table II: correlation coefficient WITH ship intrusion", cfg, cells)
		fmt.Printf("paper: 0.47..0.81, rising with M, falling with rows\n")
		return nil
	})

	run("resilience", func() error {
		cfg := eval.DefaultResilienceConfig()
		cfg.Seed = *seed
		if *trials > 0 {
			cfg.Trials = *trials
		}
		points, err := eval.Resilience(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("detection under radio loss and node failures (%d trials/point, paired seeds)\n", cfg.Trials)
		fmt.Printf("%6s %6s %12s | %7s %7s | %9s %9s\n",
			"loss", "fail", "transport", "detect", "speed", "failovers", "retrans")
		for _, p := range points {
			mode := "fire+forget"
			if p.Resilient {
				mode = "resilient"
			}
			fmt.Printf("%5.0f%% %5.0f%% %12s | %6.0f%% %6.0f%% | %9d %9d\n",
				100*p.LossRate, 100*p.FailFrac, mode,
				100*p.DetectionRatio, 100*p.SpeedRatio, p.Failovers, p.Retransmissions)
		}
		s := eval.Summarize(points)
		fmt.Printf("resilient: baseline %.0f%%, worst %.0f%%; fire+forget: baseline %.0f%%, worst %.0f%%\n",
			100*s.ResilientBaseline, 100*s.ResilientWorst,
			100*s.UnreliableBaseline, 100*s.UnreliableWorst)
		return nil
	})

	run("adversarial", func() error {
		cfg := eval.DefaultAdversarialConfig()
		cfg.Seed = *seed
		if *trials > 0 {
			cfg.Trials = *trials
		}
		points, err := eval.Adversarial(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("detection under byzantine report injection (%d trials/point, paired seeds)\n", cfg.Trials)
		fmt.Printf("%6s %11s | %7s %8s | %9s %9s %11s\n",
			"byz", "arm", "detect", "false/tr", "injected", "rejected", "quarantined")
		for _, p := range points {
			arm := "undefended"
			if p.Defended {
				arm = "defended"
			}
			fmt.Printf("%5.0f%% %11s | %6.0f%% %8.2f | %9d %9d %11d\n",
				100*p.ByzFrac, arm, 100*p.DetectionRatio, p.FalseAlarmRate,
				p.Injected, p.Rejected, p.Quarantined)
		}
		s := eval.SummarizeAdversarial(points)
		fmt.Printf("honest: detect %.0f%%, false alarms %.2f/trial; at %.0f%% byzantine: defended %.0f%% (false %.2f/trial), undefended %.0f%%\n",
			100*s.HonestDetection, s.HonestFalseAlarmRate, 100*s.WorstFrac,
			100*s.DefendedDetectionAtWorst, s.DefendedFalseAlarmsAtWorst,
			100*s.UndefendedDetectionAtWorst)
		return nil
	})

	run("scenarios", func() error {
		return runScenarios(*goldenDir, *update, *journalDir, *only)
	})

	run("fleet", func() error {
		return runFleetExp(*seed)
	})

	// The trace smoke is opt-in only, since it needs a running sidserve,
	// and it keeps stdout clean: it prints only the served detection-trace
	// JSONL so the output pipes straight into `sidwatch trace`.
	if want["trace"] {
		if err := runTraceExp(*serveAddr); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
	}

	run("fig12", func() error {
		cfg := eval.DefaultFig12Config()
		cfg.Seed = *seed
		rows, err := eval.Fig12(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("ship speed estimation (four nodes, D = 25 m)\n")
		for _, r := range rows {
			fmt.Printf("  actual %5.1f kn: est min %5.1f mean %5.1f max %5.1f kn, worst err %4.1f%%, runs %d (failures %d)\n",
				r.ActualKn, r.MinKn, r.MeanKn, r.MaxKn, 100*r.WorstRelErr, r.Runs, r.Failures)
		}
		fmt.Printf("paper: 10 kn -> 8..12 kn, 16 kn -> 15..18 kn, errors within 20%%\n")
		return nil
	})
}

func printTable(title string, cfg eval.TableConfig, cells []eval.TableCell) {
	fmt.Println(title)
	fmt.Printf("%6s", "M\\rows")
	for _, r := range cfg.RowsSet {
		fmt.Printf("%8d", r)
	}
	fmt.Println()
	for _, m := range cfg.Ms {
		fmt.Printf("%6.0f", m)
		for _, r := range cfg.RowsSet {
			for _, c := range cells {
				if c.M == m && c.Rows == r {
					fmt.Printf("%8.3f", c.C)
				}
			}
		}
		fmt.Println()
	}
}
