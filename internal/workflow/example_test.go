package workflow_test

import (
	"fmt"

	"wsdeploy/internal/workflow"
)

// ExampleBuilder builds a small workflow with an XOR decision block and
// reads its execution probabilities.
func ExampleBuilder() {
	b := workflow.NewBuilder("checkout")
	cart := b.Op("Cart", 10e6)
	pay := b.Split(workflow.XorSplit, "PayMethod", 0)
	card := b.Op("Card", 30e6)
	wire := b.Op("Wire", 20e6)
	payJ := b.Join(workflow.XorSplit, "/PayMethod", 0)
	ship := b.Op("Ship", 10e6)
	b.Link(cart, pay, 8000)
	b.LinkWeighted(pay, card, 8000, 3) // 75% pay by card
	b.LinkWeighted(pay, wire, 8000, 1)
	b.Link(card, payJ, 8000)
	b.Link(wire, payJ, 8000)
	b.Link(payJ, ship, 8000)
	w := b.MustBuild()

	np, _ := w.Probabilities()
	for u, nd := range w.Nodes {
		if nd.Kind == workflow.Operational {
			fmt.Printf("%s runs with probability %.2f\n", nd.Name, np[u])
		}
	}
	// Output:
	// Cart runs with probability 1.00
	// Card runs with probability 0.75
	// Wire runs with probability 0.25
	// Ship runs with probability 1.00
}

// ExampleNewLine builds the paper's linear workflow shape.
func ExampleNewLine() {
	w := workflow.MustNewLine("pipeline",
		[]float64{10e6, 20e6, 30e6}, // C(op) in cycles
		[]float64{8000, 16000})      // message sizes in bits
	fmt.Println(w.M(), "operations,", w.IsLinear())
	fmt.Printf("total %.0f Mcycles\n", w.TotalCycles()/1e6)
	// Output:
	// 3 operations, true
	// total 60 Mcycles
}
