package predict

import (
	"errors"
	"fmt"
	"testing"
)

// TestMaxWidthAbortsEveryExplorer: the width budget kills the offline
// and online explorers, and the failure is classified as ErrBudget so
// a serving layer can report a budget kill distinctly from a session
// inconsistency.
func TestMaxWidthAbortsEveryExplorer(t *testing.T) {
	comp := crossingComputation(t)

	// Establish the lattice geometry without a budget first, so the
	// budget below is about a width we know occurs.
	full, err := Analyze(crossingProp, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.MaxWidth < 2 {
		t.Fatalf("crossing lattice too narrow for the test: %+v", full.Stats)
	}
	budget := full.Stats.MaxWidth - 1

	res, err := Analyze(crossingProp, comp, Options{MaxWidth: budget})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("MaxWidth=%d returned err=%v, want ErrBudget", budget, err)
	}
	if res.Stats.Cuts == 0 {
		t.Errorf("budget kill discarded the partial result")
	}

	// Online: feed the same computation's messages in thread order.
	o, err := NewOnline(crossingProp, comp.Initial(), comp.Threads(), Options{MaxWidth: budget})
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
feed:
	for i := 0; i < comp.Threads(); i++ {
		for k := 1; k <= comp.Count(i); k++ {
			if ferr = o.Feed(comp.Message(i, k)); ferr != nil {
				break feed
			}
		}
		if ferr = o.FinishThread(i); ferr != nil {
			break
		}
	}
	if ferr == nil {
		_, ferr = o.Close()
	}
	if !errors.Is(ferr, ErrBudget) {
		t.Errorf("online: MaxWidth=%d returned err=%v, want ErrBudget", budget, ferr)
	}
}

// TestMaxCutsIsErrBudget: the long-standing cut bound is classified
// under the same sentinel.
func TestMaxCutsIsErrBudget(t *testing.T) {
	comp := landingComputation(t)
	_, err := Analyze(landingProp, comp, Options{MaxCuts: 2})
	if !errors.Is(err, ErrBudget) {
		t.Errorf("MaxCuts returned err=%v, want ErrBudget", err)
	}
}

// TestMaxWidthGenerousBudgetUnchanged: a budget at or above the true
// width never fires and the result matches the unbudgeted run.
func TestMaxWidthGenerousBudgetUnchanged(t *testing.T) {
	comp := crossingComputation(t)
	full, err := Analyze(crossingProp, comp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Analyze(crossingProp, comp, Options{MaxWidth: full.Stats.MaxWidth})
	if err != nil {
		t.Fatalf("budget equal to the true width fired: %v", err)
	}
	if fmt.Sprintf("%+v", got.Stats) != fmt.Sprintf("%+v", full.Stats) ||
		len(got.Violations) != len(full.Violations) {
		t.Fatalf("budgeted run diverged: %+v vs %+v", got.Stats, full.Stats)
	}
}
