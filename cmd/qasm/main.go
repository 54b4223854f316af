// Command qasm emits the benchmark applications in the toolchain's flat
// QASM dialect for inspection or interchange, or parses QASM files and
// prints their frontend statistics (the Table 2 columns that the table2
// study and the /estimate endpoint also report).
//
//	qasm -app IM -n 16 -steps 1 > im.qasm
//	qasm -stats im.qasm
//
// A malformed size (e.g. an odd -n for SQ) exits 1 with the validation
// error instead of crashing.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"surfcomm"
)

// validApps names the -app values in help order.
const validApps = "GSE, SQ, SHA-1, IM, IM-semi"

func main() {
	log.SetFlags(0)
	log.SetPrefix("qasm: ")
	app := flag.String("app", "", "application to emit: "+validApps)
	n := flag.Int("n", 8, "problem size (GSE molecule size, SQ bits, IM spins)")
	steps := flag.Int("steps", 1, "Trotter steps (GSE, IM)")
	iters := flag.Int("iters", 1, "Grover iterations (SQ)")
	rounds := flag.Int("rounds", 1, "compression rounds (SHA-1)")
	width := flag.Int("width", 16, "word width (SHA-1)")
	stats := flag.Bool("stats", false, "read QASM files from args and print frontend statistics")
	flag.Parse()

	if *stats {
		if flag.NArg() == 0 {
			log.Fatal("-stats needs at least one QASM file")
		}
		for _, path := range flag.Args() {
			est, err := fileStats(path)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s: %s\n", path, est)
		}
		return
	}
	c, err := generate(*app, *n, *steps, *iters, *rounds, *width)
	if err != nil {
		log.Fatal(err)
	}
	if err := surfcomm.WriteQASM(os.Stdout, c); err != nil {
		log.Fatal(err)
	}
}

// generate builds the selected application through the validating
// constructors, so a malformed size returns an error (exit 1) instead
// of panicking.
func generate(app string, n, steps, iters, rounds, width int) (*surfcomm.Circuit, error) {
	switch strings.ToUpper(app) {
	case "GSE":
		return surfcomm.NewGSE(surfcomm.GSEConfig{M: n, Steps: steps})
	case "SQ":
		return surfcomm.NewSQ(surfcomm.SQConfig{N: n, Iters: iters})
	case "SHA-1", "SHA1":
		return surfcomm.NewSHA1(surfcomm.SHA1Config{Rounds: rounds, WordWidth: width})
	case "IM":
		return surfcomm.NewIsing(surfcomm.IsingConfig{N: n, Steps: steps}, true)
	case "IM-SEMI":
		return surfcomm.NewIsing(surfcomm.IsingConfig{N: n, Steps: steps}, false)
	case "":
		return nil, fmt.Errorf("choose an application with -app (%s)", validApps)
	}
	return nil, fmt.Errorf("unknown application %q (valid: %s)", app, validApps)
}

func fileStats(path string) (surfcomm.Estimate, error) {
	f, err := os.Open(path)
	if err != nil {
		return surfcomm.Estimate{}, err
	}
	defer f.Close()
	c, err := surfcomm.ReadQASM(f)
	if err != nil {
		return surfcomm.Estimate{}, fmt.Errorf("%s: %w", path, err)
	}
	est, err := surfcomm.EstimateCircuit(c)
	if err != nil {
		return surfcomm.Estimate{}, fmt.Errorf("%s: %w", path, err)
	}
	return est, nil
}
