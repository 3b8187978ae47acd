// Model comparison sweep: regenerate the paper's core finding across
// matrix families and processor counts. For each selected catalog
// matrix and K, the three decomposition models are run and their scaled
// communication volumes printed side by side, with the fine-grain
// improvement percentage — the quantity behind the paper's "about 50
// percent decrease" headline.
//
// Usage: go run ./examples/comparison [-scale 0.08] [-k 16,32] [-seeds 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	finegrain "finegrain"
	"finegrain/internal/experiments"
	"finegrain/internal/matgen"
)

func main() {
	scale := flag.Float64("scale", 0.08, "matrix scale (1 = paper size)")
	ks := flag.String("k", "16", "comma-separated processor counts")
	seeds := flag.Int("seeds", 2, "partitioner seeds averaged per instance")
	matrices := flag.String("matrices", "sherman3,bcspwr10,ken-11,cq9,cre-b,finan512",
		"comma-separated catalog matrices")
	flag.Parse()

	var kList []int
	for _, f := range strings.Split(*ks, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			log.Fatalf("bad -k: %v", err)
		}
		kList = append(kList, k)
	}

	fmt.Printf("%-12s %4s | %12s %10s %10s %10s | %s\n",
		"matrix", "K", "checkerboard", "graph", "hypergraph", "finegrain", "finegrain vs hypergraph")
	for _, name := range strings.Split(*matrices, ",") {
		spec, err := matgen.Lookup(strings.TrimSpace(name))
		if err != nil {
			log.Fatal(err)
		}
		a := spec.Scaled(*scale).Generate(experiments.MatrixSeed(spec.Name))
		for _, k := range kList {
			vols := map[experiments.Model]float64{}
			for _, model := range experiments.AllModels() {
				avg, err := experiments.RunAveraged(a, k, model, *seeds, finegrain.Options{})
				if err != nil {
					log.Fatalf("%s K=%d %s: %v", spec.Name, k, model, err)
				}
				vols[model] = avg.ScaledTot
			}
			imp := 100 * (1 - vols["finegrain"]/vols["hypergraph"])
			fmt.Printf("%-12s %4d | %12.3f %10.3f %10.3f %10.3f | %+.0f%%\n",
				spec.Name, k, vols["checkerboard"], vols["graph"], vols["hypergraph"], vols["finegrain"], imp)
		}
	}
	fmt.Println("\n(volumes are words scaled by the matrix dimension, as in Table 2)")
}
