#!/usr/bin/env bash
# CPU profile of one benchmark workload through its root-package mirror.
#
#   scripts/profile.sh <workload> [--out DIR]
#
# <workload> is train_fft7, train_aniso_auto or infer_cube_f32: the
# go-test mirrors BenchmarkWorkloadTrainFFT7, BenchmarkWorkloadTrainAnisoAuto
# and BenchmarkWorkloadInferCubeF32, which run the gated benchmark's
# networks through the public API. The script compiles the root package's
# test binary into DIR (default profile-out/), runs the mirror for 150
# iterations (20 for infer_cube_f32, whose iteration streams a whole cube)
# with -test.cpuprofile, and prints `go tool pprof -top
# -nodecount 10` of the profile. serve_closed2 has no mirror: it drives a
# znn-serve process over HTTP, so the script refuses it.
set -euo pipefail

usage() {
	sed -n '4p' "$0" >&2
	exit 2
}
[ $# -ge 1 ] || usage
workload=$1
shift
out=profile-out
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	[ "$1" = --out ] || usage
	out=$2
	shift 2
done

case $workload in
train_fft7) bench=WorkloadTrainFFT7 n=150 ;;
train_aniso_auto) bench=WorkloadTrainAnisoAuto n=150 ;;
infer_cube_f32) bench=WorkloadInferCubeF32 n=20 ;;
serve_closed2)
	echo "profile.sh: serve_closed2 has no root mirror (it drives a znn-serve process over HTTP); profile the server itself" >&2
	exit 1
	;;
*)
	echo "profile.sh: unknown workload '$workload' (train_fft7, train_aniso_auto, infer_cube_f32)" >&2
	exit 2
	;;
esac

root=$(git rev-parse --show-toplevel)
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOTOOLCHAIN=local
(cd "$root" && go test -c -o "$out/znn.test" .)
(cd "$out" && ./znn.test -test.run '^$' -test.bench "^Benchmark$bench\$" \
	-test.benchtime "${n}x" -test.benchmem -test.cpuprofile "$out/$workload.cpu")
go tool pprof -top -nodecount 10 "$out/znn.test" "$out/$workload.cpu"
