// Custom workload walkthrough: define your own task graph in code, save it
// as a workload JSON (the `solarsched node` format), size a capacitor bank for a
// site-specific solar history, and compare schedulers — everything a
// downstream user needs to deploy the library on their own application.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"solarsched"
)

func main() {
	// A soil-moisture irrigation controller: sample, filter, decide, act,
	// report. Two NVPs: sensing/compute and radio/actuation.
	tasks := []solarsched.Task{
		{ID: 0, Name: "sample-moisture", ExecTime: 120, Power: 0.012, Deadline: 480, NVP: 0},
		{ID: 1, Name: "filter", ExecTime: 240, Power: 0.018, Deadline: 900, NVP: 0},
		{ID: 2, Name: "decide", ExecTime: 120, Power: 0.010, Deadline: 1200, NVP: 0},
		{ID: 3, Name: "actuate-valve", ExecTime: 180, Power: 0.055, Deadline: 1560, NVP: 1},
		{ID: 4, Name: "report", ExecTime: 240, Power: 0.048, Deadline: 1800, NVP: 1},
	}
	edges := []solarsched.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 4},
	}
	graph := solarsched.NewTaskGraph("irrigation", tasks, edges, 2)

	trace := solarsched.RepresentativeDays(solarsched.DefaultTimeBase(4))
	if err := graph.Validate(trace.Base.PeriodSeconds()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %d tasks, %.1f J per period\n",
		graph.Name, graph.N(), graph.PeriodEnergy())

	// Persist the workload in the `solarsched node` JSON format.
	path := filepath.Join(os.TempDir(), "irrigation.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := graph.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("workload written to %s (usable with solarsched node -workload)\n\n", path)

	// Size a bank against a site history and compare schedulers.
	history, err := solarsched.GenerateTrace(solarsched.GenConfig{
		Base: solarsched.DefaultTimeBase(12),
		Seed: 23,
	})
	if err != nil {
		log.Fatal(err)
	}
	params := solarsched.DefaultCapParams()
	bank := solarsched.SizeBank(history, graph, 3, params, solarsched.DefaultDirectEff)
	fmt.Printf("sized bank: %v\n\n", bank)

	pc := solarsched.DefaultPlanConfig(graph, trace.Base, bank)
	optimal, err := solarsched.NewClairvoyant(pc, trace, 48)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range []solarsched.Scheduler{
		solarsched.NewInterLSA(graph, trace.Base, solarsched.DefaultDirectEff),
		solarsched.NewIntraMatch(graph),
		optimal,
	} {
		engine, err := solarsched.NewEngine(solarsched.EngineConfig{
			Trace: trace, Graph: graph, Capacitances: bank,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := engine.Run(context.Background(), s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s DMR %5.1f%%  (direct-use %4.1f%%)\n",
			s.Name(), 100*res.DMR(), 100*res.DirectUseRatio())
	}
}
