// Command visharness regenerates every experiment of the paper's evaluation
// (E1-E12, as core.Experiments lists them): the DPSS throughput claims, the
// SC99 and Combustion Corridor campaign profiles, the serial-versus-overlapped
// studies, the IBRAVR artifact sweep, the terascale projections, and the
// ablations — plus the X-series studies of the paper's section 5 proposals
// (QoS / bandwidth reservation). Results print as text tables with the
// paper-reported values alongside the measured ones.
//
// Usage:
//
//	visharness              # run every experiment
//	visharness -exp e4      # run one experiment
//	visharness -list        # list experiment identifiers
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"visapult/pkg/visapult"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (e1..e12, x1...); empty runs all")
	list := flag.Bool("list", false, "list available experiments and exit")
	flag.Parse()

	experiments := append(visapult.Experiments(), visapult.Extensions()...)
	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	want := strings.ToLower(strings.TrimSpace(*exp))
	ran := 0
	for _, e := range experiments {
		if want != "" && e.ID != want {
			continue
		}
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "visharness: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Println(tbl.String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "visharness: unknown experiment %q (use -list)\n", want)
		os.Exit(2)
	}
}
