// Package wsdeploy reproduces "Efficient Deployment of Web Service
// Workflows" (Stamkopoulos, Pitoura, Vassiliadis — ICDE 2007): greedy
// algorithms that map a workflow of web-service operations onto a
// provider's servers, trading workflow execution time against fairness of
// the load distribution.
//
// The library lives under internal/:
//
//	internal/workflow  — workflow graphs (AND/OR/XOR blocks, probabilities)
//	internal/network   — server topologies (line, bus, general) and routing
//	internal/cost      — the paper's cost model (Texecute, time penalty)
//	internal/deploy    — the operation→server mapping type
//	internal/core      — the deployment algorithms (the paper's contribution)
//	internal/engine    — concurrent portfolio planner: worker pool, plan
//	                     cache, cancellation, metrics
//	internal/sim       — discrete-event execution simulator
//	internal/gen       — Table 6 workload generators and graph structures
//	internal/exp       — the experiment harness regenerating Figs. 6–8 and §4.2
//	internal/wfio      — JSON and Graphviz DOT serialization
//
// Binaries: cmd/wsdeploy (deploy a spec), cmd/experiment (regenerate the
// paper's evaluation), cmd/wfgen (generate workloads), cmd/wsdeployd
// (serve the planner over HTTP). Runnable examples live under examples/. This file's sibling bench_test.go holds one
// benchmark per reproduced table/figure.
package wsdeploy
