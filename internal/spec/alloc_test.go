package spec_test

import (
	"testing"

	"aved/internal/scenarios"
	"aved/internal/spec"
)

// parseSources are the paper's Fig. 3 infrastructure and Fig. 4
// e-commerce spec texts, the documents every e-commerce solve parses.
var parseSources = []struct{ name, src string }{
	{"fig3-infrastructure", scenarios.InfrastructureSpec},
	{"fig4-ecommerce", scenarios.EcommerceSpec},
}

func BenchmarkParse(b *testing.B) {
	for _, ps := range parseSources {
		b.Run(ps.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(ps.src)))
			for i := 0; i < b.N; i++ {
				if _, err := spec.Parse(ps.src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The corpus case parses the infrastructure and service texts of
	// the first two seed-1 scenarios of every corpus family, the texts
	// a corpus solve parses, once per iteration.
	b.Run("corpus", func(b *testing.B) {
		var srcs []string
		size := 0
		for _, fam := range scenarios.Families {
			for i := 0; i < 2; i++ {
				sc, err := scenarios.GenScenario(fam, i, 1)
				if err != nil {
					b.Fatal(err)
				}
				srcs = append(srcs, sc.InfSpec, sc.SvcSpec)
				size += len(sc.InfSpec) + len(sc.SvcSpec)
			}
		}
		b.ReportAllocs()
		b.SetBytes(int64(size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				if _, err := spec.Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestParseAllocBudget is the allocation regression for the pull
// parser: no token slice, one attribute slab per document, and tokens
// that slice the source. Parsing both paper texts measured 44
// allocations per run (the lex-then-parse pipeline it replaced, 183);
// the budget sits at 1.5x the landing point, so an allocation per
// token or per attribute (hundreds per document) trips it.
func TestParseAllocBudget(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		for _, ps := range parseSources {
			if _, err := spec.Parse(ps.src); err != nil {
				t.Fatal(err)
			}
		}
	})
	const budget = 66
	t.Logf("parse of the Fig. 3 and Fig. 4 texts: %.0f allocations per run", allocs)
	if allocs > budget {
		t.Errorf("parse allocates %.0f objects per run, want <= %d", allocs, budget)
	}
}
