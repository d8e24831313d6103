// Command eclipse-lint runs the project's static-analysis suite (package
// internal/lint) over the module: ring-comparison safety, no RPCs under
// node mutexes, an acyclic lock-order graph, constant single-kind metric
// names, simulator determinism, checked I/O-boundary errors, ended spans,
// terminating goroutines and inherited contexts.
//
// Usage:
//
//	eclipse-lint [-only name,name] [pattern ...]
//
// Patterns are package directories or dir/... recursive patterns,
// relative to the module root; the default is ./... , which is what the
// build gate runs. Findings print as
//
//	file:line: analyzer: message
//
// and the exit status is 1 when there are findings, 2 on load errors.
// Suppress an individual finding with a trailing or preceding comment:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"eclipsemr/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("eclipse-lint", flag.ContinueOnError)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	list := fs.Bool("list", false, "list analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: eclipse-lint [-only name,name] [pattern ...]\n\nanalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(fs.Output(), "  %-11s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.Analyzers()
	if *only != "" {
		byName := make(map[string]*lint.Analyzer)
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "eclipse-lint: unknown analyzer %q (have %s)\n",
					name, strings.Join(lint.AnalyzerNames(), ", "))
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "eclipse-lint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eclipse-lint:", err)
		return 2
	}
	unit, err := loader.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "eclipse-lint:", err)
		return 2
	}
	findings := lint.Run(unit, analyzers)
	for _, f := range findings {
		fmt.Println(f.Render(cwd))
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "eclipse-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
