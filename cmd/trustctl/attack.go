package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"weboftrust/internal/adversary"
	"weboftrust/internal/synth"
)

// cmdAttack runs adversarial scenarios (internal/adversary) against
// their clean synth baselines and reports the resistance metrics: rank
// lift, top-k exposure, per-algorithm propagation inflation and anomaly
// separation, with each scenario's pinned assertions enforced. With
// -export-log the attacked dataset is additionally rendered as an event
// log, which any trustd serve, sharded or not, replays whole.
func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	scenario := fs.String("scenario", "", "one scenario JSON file to run")
	dir := fs.String("dir", "", "directory of scenario JSON files (e.g. scenarios/)")
	jsonOut := fs.String("json", "", "write the resistance-metrics report JSON to this path")
	exportLog := fs.String("export-log", "", "write the attacked dataset as an event log (single -scenario only)")
	landmarks := fs.Int("landmarks", 0, "measure propagation inflation through N-landmark sketches (?approx=landmark mode; 0 = exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*scenario == "") == (*dir == "") {
		return fmt.Errorf("attack: exactly one of -scenario or -dir is required")
	}
	if *exportLog != "" && *scenario == "" {
		return fmt.Errorf("attack: -export-log needs a single -scenario")
	}

	var scs []*adversary.Scenario
	if *scenario != "" {
		sc, err := adversary.LoadScenario(*scenario)
		if err != nil {
			return err
		}
		scs = append(scs, sc)
	} else {
		var err error
		if scs, err = adversary.LoadDir(*dir); err != nil {
			return err
		}
	}

	runner := adversary.NewRunner()
	runner.Landmarks = *landmarks
	rep, err := runner.RunSuite(scs)
	if err != nil {
		return err
	}
	for _, res := range rep.Scenarios {
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}
	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d scenarios)\n", *jsonOut, len(rep.Scenarios))
	}
	if *exportLog != "" {
		if err := exportAttackLog(scs[0], *exportLog); err != nil {
			return err
		}
	}
	if !rep.Passed {
		return fmt.Errorf("attack: assertion failures (see report)")
	}
	return nil
}

// exportAttackLog re-injects the scenario's attacks into its clean
// baseline and writes the attacked dataset's event stream. Injection is
// seeded, so the exported log is byte-identical run to run.
func exportAttackLog(sc *adversary.Scenario, path string) error {
	cfg, err := sc.BaseConfig()
	if err != nil {
		return err
	}
	clean, _, err := synth.Generate(cfg)
	if err != nil {
		return err
	}
	attacked, _, err := adversary.Inject(clean, sc.Attacks, sc.Seed)
	if err != nil {
		return err
	}
	if err := writeLog(path, attacked); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %v\n", path, attacked)
	return nil
}
