package model

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// nested is a one-tree forest whose branch nodes nest depth deep down the
// left spine.
func nested(depth int) string {
	return "labels a b\nfeatures 1\nprecision 8\ntree " + strings.Repeat("(0 7 ", depth) + "0" + strings.Repeat(" 1)", depth) + "\n"
}

// TestParseDepthBound: a tree nested MaxTreeDepth deep parses, one level
// more is refused with a *DepthError, before the parser's stack follows
// the input down.
func TestParseDepthBound(t *testing.T) {
	f, err := ParseString(nested(MaxTreeDepth))
	if err != nil {
		t.Fatalf("a tree %d deep: %v", MaxTreeDepth, err)
	}
	if got := f.Trees[0].Root.Level(); got != MaxTreeDepth {
		t.Errorf("parsed to level %d, want %d", got, MaxTreeDepth)
	}
	for _, depth := range []int{MaxTreeDepth + 1, 100 * MaxTreeDepth} {
		var de *DepthError
		if _, err := ParseString(nested(depth)); !errors.As(err, &de) {
			t.Errorf("a tree %d deep: %v, want a *DepthError", depth, err)
		}
	}
}

// FuzzParseModel: Parse never panics, and every forest it accepts
// formats to text that parses back to the same forest.
func FuzzParseModel(f *testing.F) {
	fig1, err := FormatString(Figure1())
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		fig1,
		"# a two-tree forest\nlabels approve deny\nfeatures 3\nprecision 8\n\ntree (0 130 (1 77 0 1) 1)\ntree (2 40 0 (0 99 1 0))\n",
		// Unbalanced parentheses.
		"labels a b\nfeatures 1\nprecision 8\ntree ((0 5 0 1)\n",
		"labels a b\nfeatures 1\nprecision 8\ntree (0 5 0 1))\n",
		"labels a b\nfeatures 1\nprecision 8\ntree )(\n",
		"labels a b\nfeatures 1\nprecision 8\ntree (0 5 (0 6 0 1\n",
		// Huge counts and values.
		"labels a b\nfeatures 9223372036854775807\nprecision 32\ntree (9223372036854775806 4294967295 0 1)\n",
		"labels a b\nfeatures 99999999999999999999\nprecision 8\ntree 0\n",
		"labels a b\nfeatures 1\nprecision -9223372036854775808\ntree 0\n",
		"labels a b\nfeatures 1\nprecision 8\ntree (0 18446744073709551616 0 1)\n",
		"labels a b\nfeatures 1\nprecision 8\ntree 9223372036854775807\n",
		// Deep nesting, at the bound and past it.
		nested(MaxTreeDepth),
		nested(MaxTreeDepth + 1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		forest, err := ParseString(text)
		if err != nil {
			return
		}
		out, err := FormatString(forest)
		if err != nil {
			t.Fatalf("an accepted forest does not format: %v", err)
		}
		back, err := ParseString(out)
		if err != nil {
			t.Fatalf("the formatted forest does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(back, forest) {
			t.Fatalf("round trip moved the forest:\n%s", out)
		}
	})
}
