package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestExperimentIDsUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, e := range experiments {
		if seen[e.id] {
			t.Errorf("experiment id %q listed twice (or shadows all)", e.id)
		}
		seen[e.id] = true
	}
}

// TestSelectExperiments covers lookup by id, all, and the rejection of ids
// that no longer exist (the A/B ablations live under go test -bench).
func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil || len(all) != len(experiments) {
		t.Fatalf("all = %d experiments, %v; want %d", len(all), err, len(experiments))
	}
	for _, e := range experiments {
		got, err := selectExperiments(e.id)
		if err != nil || len(got) != 1 || got[0].id != e.id {
			t.Errorf("select %q = %v, %v", e.id, got, err)
		}
	}
	for _, id := range []string{"memo", "sched", "sum", "pool", "pqueue", ""} {
		_, err := selectExperiments(id)
		if err == nil {
			t.Errorf("select %q accepted", id)
			continue
		}
		for _, e := range experiments {
			if !strings.Contains(err.Error(), " "+e.id+" ") {
				t.Errorf("select %q: message %q does not list %q", id, err, e.id)
			}
		}
	}
}

// TestDocListsExperiments keeps the package doc's "Experiments:" line equal
// to the table, so a deleted id cannot linger in the docs.
func TestDocListsExperiments(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	doc := f.Doc.Text()
	i := strings.Index(doc, "Experiments:")
	if i < 0 {
		t.Fatal("package doc has no Experiments: line")
	}
	line := doc[i+len("Experiments:"):]
	line = line[:strings.Index(line, ".")]
	want := []string{}
	for _, e := range experiments {
		want = append(want, e.id)
	}
	want = append(want, "all")
	if got := strings.Fields(line); !reflect.DeepEqual(got, want) {
		t.Errorf("doc lists %v, table has %v", got, want)
	}
}
