// Command sevc compiles MiniC to SEV machine code and prints the
// disassembly, per-level code-size statistics, or the intermediate
// representation.
//
// Usage:
//
//	sevc -bench qsort -O O2 -march a15          # disassemble a benchmark
//	sevc -src prog.mc -O O3 -march a72 -ir      # dump optimized IR
//	sevc -bench sha -sizes                      # code size at every level
package main

import (
	"flag"
	"fmt"

	"sevsim/internal/cli"
	"sevsim/internal/compiler"
	"sevsim/internal/isa"
	"sevsim/internal/machine"
)

func main() {
	bench := flag.String("bench", "", "benchmark name (qsort, dijkstra, fft, sha, blowfish, gsm, patricia, rijndael)")
	srcFile := flag.String("src", "", "MiniC source file")
	size := flag.Int("size", 0, "benchmark scale (0 = default)")
	levelFlag := flag.String("O", "O2", "optimization level O0..O3")
	marchFlag := flag.String("march", "a15", "microarchitecture: a15 or a72")
	dumpIR := flag.Bool("ir", false, "dump optimized IR instead of machine code")
	sizes := flag.Bool("sizes", false, "print code size at every optimization level")
	flag.Parse()

	cfg, err := cli.March(*marchFlag)
	if err != nil {
		cli.Fatal(err)
	}
	name, src, err := cli.LoadSource(*bench, *srcFile, *size)
	if err != nil {
		cli.Fatal(err)
	}
	tgt := compiler.TargetFor(cfg)

	if *sizes {
		fmt.Printf("%s on %s:\n", name, cfg.Name)
		for _, level := range compiler.Levels {
			prog, err := compiler.Compile(src, name, level, tgt)
			if err != nil {
				cli.Fatal(err)
			}
			fmt.Printf("  %s: %5d instructions (%d bytes)\n", level, len(prog.Code), len(prog.Code)*4)
		}
		return
	}

	level, err := compiler.ParseLevel(*levelFlag)
	if err != nil {
		cli.Fatal(err)
	}

	if *dumpIR {
		mod, err := compiler.Lower(cli.MustParse(src), tgt.WordSize())
		if err != nil {
			cli.Fatal(err)
		}
		compiler.OptimizeWith(mod, compiler.LevelPasses(level, tgt), tgt)
		for _, f := range mod.Funcs {
			fmt.Println(f.String())
		}
		return
	}

	prog, err := compiler.Compile(src, name, level, tgt)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Printf("// %s %s %s: %d instructions, %d bytes of globals\n",
		name, level, cfg.Name, len(prog.Code), prog.GlobalSize)
	for i, w := range prog.Code {
		in := isa.Decode(w)
		fmt.Printf("%6x: %08x  %s\n", machine.CodeBase+uint64(i*4), w, in.String())
	}
}
