// The benchmark is a module of its own so that it builds from its own
// build file; the name keeps it under the tip/ import prefix, which is
// what lets it reach the layers in tip/internal.
module tip/benchmark

go 1.22

require tip v0.0.0

replace tip => ../
