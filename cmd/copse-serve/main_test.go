package main

import (
	"slices"
	"testing"

	"copse"
)

// TestRegisterOrderFollowsServedScenario: the first registered model sizes
// the shared chain, so the order is by the chain of the scenario served —
// not by LevelPlan.Levels, the deeper of the two compare entries. Model a
// has the deeper cipher entry, model b the deeper plaintext one: a
// plaintext-model server must register b first, an encrypted-model one a.
func TestRegisterOrderFollowsServedScenario(t *testing.T) {
	plan := func(cipher, plain int) *copse.Compiled {
		c, err := copse.Compile(copse.ExampleForest(), copse.CompileOptions{Slots: 1024})
		if err != nil {
			t.Fatal(err)
		}
		c.Meta.RecommendedLevels = 20
		c.Meta.LevelPlan.Cipher.Compare, c.Meta.LevelPlan.Plain.Compare = cipher, plain
		c.Meta.LevelPlan.Levels = max(cipher, plain) + 1
		return c
	}
	compiled := map[string]*copse.Compiled{"a": plan(12, 9), "b": plan(11, 10)}
	if compiled["a"].Meta.LevelPlan.Levels <= compiled["b"].Meta.LevelPlan.Levels {
		t.Fatal("the fixture must order a first by LevelPlan.Levels")
	}
	for scenario, want := range map[copse.Scenario][]string{
		copse.ScenarioServerModel: {"b", "a"},
		copse.ScenarioOffload:     {"a", "b"},
		copse.ScenarioClientEval:  {"a", "b"},
	} {
		names := []string{"a", "b"}
		if err := registerOrder(names, compiled, scenario); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(names, want) {
			t.Errorf("scenario %d: register order %v, want %v", scenario, names, want)
		}
	}
}
