// The benchmark is a module of its own so that it builds from its own
// directory with its own build file; the module path keeps it inside the
// znn/ import tree, which is what lets it time the internal/* layers.
module znn/benchmark

go 1.22

require znn v0.0.0

replace znn => ../
