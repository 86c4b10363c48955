// Command sidtrace generates, inspects, records and replays accelerometer
// traces in the SID trace format — the stand-in for the paper's sea-trial
// recordings.
//
// Subcommands close the record→replay loop around the detection pipeline:
//
//	sidtrace record -scenario single-10kn -dir traces/   # scenario → per-node SIDTRACE files
//	sidtrace replay -dir traces/                         # feed them back, print detections
//	sidtrace replay -dir traces/ -verify                 # re-run the sim, require bit-equality
//
// Legacy single-trace generation and inspection remain:
//
//	sidtrace -o pass.sidtrc -dur 400 -ship 10 -dist 25   # generate
//	sidtrace -i pass.sidtrc                              # inspect
//	sidtrace -i pass.sidtrc -csv pass.csv                # convert
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/sid-wsn/sid/internal/eval"
	"github.com/sid-wsn/sid/internal/geo"
	"github.com/sid-wsn/sid/internal/sensor"
	"github.com/sid-wsn/sid/internal/stats"
	"github.com/sid-wsn/sid/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			if err := recordCmd(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		case "replay":
			if err := replayCmd(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			return
		}
	}

	var (
		out    = flag.String("o", "", "output trace file to generate")
		in     = flag.String("i", "", "input trace file to inspect")
		csvOut = flag.String("csv", "", "also write the trace as CSV to this path")
		dur    = flag.Float64("dur", 400, "recording duration in seconds")
		shipKn = flag.Float64("ship", 10, "ship speed in knots (0 = no ship)")
		dist   = flag.Float64("dist", 25, "buoy distance from the sailing line (m)")
		arrive = flag.Float64("arrive", 0.6, "wake arrival as a fraction of the duration")
		hs     = flag.Float64("hs", 0.4, "significant wave height (m)")
		tp     = flag.Float64("tp", 6, "sea peak period (s)")
		seed   = flag.Int64("seed", 1, "random seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: sidtrace record|replay [flags]  (see -h of each)\n   or: sidtrace [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	switch {
	case *out != "":
		if err := generate(*out, *csvOut, *dur, *shipKn, *dist, *arrive, *hs, *tp, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *in != "":
		if err := inspect(*in, *csvOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func generate(path, csvPath string, dur, shipKn, dist, arrive, hs, tp float64, seed int64) error {
	sc := eval.Scenario{
		Hs: hs, Tp: tp,
		ShipSpeed: geo.Knots(shipKn),
		ShipDist:  dist,
		Seed:      seed,
	}
	samples, ship, err := sc.Record(dur, arrive*dur)
	if err != nil {
		return err
	}
	h := trace.Header{
		SampleRate: sensor.DefaultAccelConfig().SampleRate,
		CountsPerG: sensor.DefaultAccelConfig().CountsPerG,
		Seed:       seed,
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Write(f, h, samples); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d samples, %.0f s at %.0f Hz", path, len(samples), dur, h.SampleRate)
	if ship != nil {
		fmt.Printf(", ship %.0f kn at %.0f m (front at t=%.1f s)", shipKn, dist, arrive*dur)
	}
	fmt.Println()
	if csvPath != "" {
		return writeCSV(csvPath, h, samples)
	}
	return nil
}

func inspect(path, csvPath string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	h, samples, err := trace.Read(f)
	if err != nil {
		return err
	}
	z := sensor.ZSeries(samples)
	m, sd := stats.MeanStd(z)
	min, max := stats.MinMax(z)
	fmt.Printf("%s: %d samples, %.1f s at %.0f Hz, scale %.0f counts/g, seed %d\n",
		path, h.NumSamples, float64(h.NumSamples)/h.SampleRate, h.SampleRate, h.CountsPerG, h.Seed)
	fmt.Printf("  z: mean %.1f std %.1f range [%.0f, %.0f] counts\n", m, sd, min, max)
	if csvPath != "" {
		return writeCSV(csvPath, h, samples)
	}
	return nil
}

func writeCSV(path string, h trace.Header, samples []sensor.Sample) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCSV(f, h, samples); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
