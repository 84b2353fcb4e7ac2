// Package repro is a full reproduction of "Greedy and Local Ratio
// Algorithms in the MapReduce Model" (Harvey, Liaw, Liu — SPAA 2018,
// arXiv:1806.06421) as a Go library.
//
// The library lives in internal packages:
//
//   - internal/mpc      — the MapReduce/MPC cluster simulator (one round
//     path over a run list that charges each round O(active machines) via
//     the Arm/ArmAll contract, per-machine space accounting over
//     incremental aggregates, broadcast trees, the round executor —
//     sequential, or a persistent chunked worker pool — the columnar
//     zero-copy message plane that carries round traffic allocation-free,
//     and between-round context cancellation);
//   - internal/core     — the paper's eight MapReduce algorithms plus the
//     Luby and filtering baselines, dispatched through the algorithm
//     registry (name → runner + parameter schema);
//   - internal/seq      — sequential local ratio / greedy algorithms and
//     exact test oracles;
//   - internal/graph    — the CSR-native graph kernel (contiguous int32
//     neighbour/weight/edge-id slabs, parallel deterministic Build and
//     generators), solution validators, and the out-of-core binary
//     container (checksummed CSR sections opened zero-copy via mmap,
//     converted in memory or, for large graphs, by a streaming external
//     sort, both byte-identical to the in-heap encoder);
//   - internal/setcover — weighted set cover instances and generators;
//   - internal/bench    — the Figure 1 reproduction experiments;
//   - internal/service  — the concurrent job-serving subsystem (instance
//     cache keyed by spec hash, one job table of open flights and LRU
//     results, bounded worker pool, HTTP JSON API, metrics);
//   - internal/ledger   — the durable job ledger: a Merkle-chained,
//     CRC-framed, fsynced append-only log behind one Store interface
//     (in-memory and segmented-disk backends), with torn-tail recovery
//     after kill -9, full-chain verification, and a non-blocking write
//     batcher that degrades to memory-only on store failure — ledger IO
//     never fails a job;
//   - internal/rng      — deterministic splittable randomness.
//
// Entry points: cmd/mrbench (regenerate every Figure 1 row), cmd/mrrun (run
// one algorithm), cmd/mrserve (the job-serving daemon, with -ledger
// persisting every completed job so a restarted daemon serves pre-crash
// results bit-identically without re-execution),
// cmd/mrverify (offline ledger audit: verify the Merkle chain, re-execute
// ledgered jobs, prove the chained hashes reproduce),
// and examples/ (runnable scenarios). "go run ./cmd/mrbench -quick -json"
// reproduces BENCH_quick.json, the committed record of every table. The Go
// benchmarks live beside the code they measure, in internal/mpc,
// internal/graph, internal/seq, internal/core, internal/service and the
// other internal packages. See README.md and DESIGN.md.
package repro
