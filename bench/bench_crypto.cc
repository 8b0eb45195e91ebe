// Signature-subsystem microbenchmark: the per-operation cost of the two
// crypto backends behind the SignatureScheme seam, and the payoff of
// batch verification on the certificate hot path. Four measurements per
// scheme where they apply:
//
//   * sign — signatures/sec over a 32-byte digest (the consensus shape).
//   * verify (scalar) — one-at-a-time verification, the fallback path.
//   * verify (batch) — signatures/sec through VerifyBatch at a
//     quorum-sized batch; for ed25519 this is the shared-doubling
//     multi-scalar multiplication that amortizes the curve work.
//   * certificate check — full Certificate::Verify round trips/sec
//     through a KeyRegistry (decode-free: the cert is already in memory).
//
// The headline acceptance number is ed25519 batch vs scalar verify: the
// batch figure must be measurably higher per signature. --baseline=FILE
// writes the schema-versioned perf-trajectory document
// (core/bench_baseline.h) that BENCH_crypto.json tracks;
// tools/obs/compare_bench.py diffs two such documents (metric names end
// in per_sec, so higher is better). Every figure is the median of
// kRepetitions timed windows, each timed on the calling thread's CPU clock
// so time the host takes the CPU away is not counted as crypto time.

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/bench_baseline.h"
#include "crypto/signature.h"
#include "obs/json_writer.h"
#include "proto/entry.h"

namespace massbft {
namespace {

struct CryptoBenchOptions {
  uint64_t sign_iters = 1000;
  uint64_t verify_iters = 1000;
  uint64_t batch_size = 7;   // One paper-sized group: n = 3f+1 with f = 2.
  uint64_t batch_iters = 300;
  uint64_t cert_iters = 300;
  std::string baseline_file;
};

CryptoBenchOptions ParseArgs(int argc, char** argv) {
  CryptoBenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--sign-iters=")) {
      opts.sign_iters = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--verify-iters=")) {
      opts.verify_iters = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--batch-size=")) {
      opts.batch_size = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--batch-iters=")) {
      opts.batch_iters = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--cert-iters=")) {
      opts.cert_iters = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--baseline=")) {
      opts.baseline_file = v;
    } else {
      std::fprintf(stderr,
                   "usage: bench_crypto [--sign-iters=N] [--verify-iters=N] "
                   "[--batch-size=N] [--batch-iters=N] [--cert-iters=N] "
                   "[--baseline=FILE]\n");
      std::exit(2);
    }
  }
  return opts;
}

struct OpResult {
  uint64_t ops = 0;      // Per-signature operations in the timed window.
  double cpu_ms = 0;     // Thread CPU time of the window.
  double per_sec = 0;
};

/// Timed repetitions per measurement. On a shared VM a single window of
/// a few tens of milliseconds swung 2-3x between runs of unchanged code;
/// the median of several windows is steady enough to compare a change
/// against its parent.
constexpr int kRepetitions = 7;

/// Times `iters` calls of `op`, where each call covers `ops_per_iter`
/// per-signature operations (1 for scalar paths, the batch width for
/// batched ones), kRepetitions times, and returns the median window. One
/// untimed warmup call primes caches and tables.
OpResult TimeOp(uint64_t iters, uint64_t ops_per_iter,
                const std::function<void()>& op) {
  auto thread_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
  };
  op();  // Warmup.
  std::vector<OpResult> reps(kRepetitions);
  for (OpResult& r : reps) {
    const double start = thread_cpu_ms();
    for (uint64_t i = 0; i < iters; ++i) op();
    r.ops = iters * ops_per_iter;
    r.cpu_ms = thread_cpu_ms() - start;
    r.per_sec = 1000.0 * static_cast<double>(r.ops) / r.cpu_ms;
  }
  std::sort(reps.begin(), reps.end(), [](const OpResult& a, const OpResult& b) {
    return a.per_sec < b.per_sec;
  });
  return reps[kRepetitions / 2];
}

struct SchemeResults {
  OpResult sign;
  OpResult verify_scalar;
  OpResult verify_batch;
  OpResult cert_check;  // ops = certificates, not signatures.
};

/// Runs the four measurements against one registry/backend. The digest is
/// the 32-byte consensus shape; every signer signs the same digest, which
/// is exactly the certificate situation VerifyBatch exists for.
SchemeResults RunScheme(CryptoScheme scheme, const CryptoBenchOptions& opts) {
  KeyRegistry registry(scheme);
  const uint64_t n = opts.batch_size;
  std::vector<NodeId> nodes;
  for (uint64_t i = 0; i < n; ++i) {
    NodeId node{1, static_cast<uint16_t>(i)};
    registry.RegisterNode(node);
    nodes.push_back(node);
  }
  Bytes digest_bytes = ToBytes("bench digest: 32 bytes of entry.");
  Digest digest{};
  std::memcpy(digest.data(), digest_bytes.data(),
              std::min(digest.size(), digest_bytes.size()));

  std::vector<Signature> sigs;
  for (NodeId node : nodes) sigs.push_back(registry.Sign(node, digest_bytes));
  std::vector<const Signature*> sig_ptrs;
  for (const Signature& s : sigs) sig_ptrs.push_back(&s);

  Certificate cert;
  cert.gid = 1;
  cert.digest = digest;
  for (uint64_t i = 0; i < n; ++i)
    cert.AddSignature(static_cast<uint16_t>(i), sigs[i]);

  SchemeResults r;
  volatile bool sink = false;  // Keeps verify results observable.
  r.sign = TimeOp(opts.sign_iters, 1, [&] {
    Signature s = registry.Sign(nodes[0], digest_bytes);
    sink = sink != (s[0] == 0);
  });
  r.verify_scalar = TimeOp(opts.verify_iters, 1, [&] {
    sink = registry.Verify(nodes[0], digest_bytes, sigs[0]);
  });
  r.verify_batch = TimeOp(opts.batch_iters, n, [&] {
    sink = registry.VerifyBatch(nodes, digest_bytes.data(),
                                digest_bytes.size(), sig_ptrs);
  });
  r.cert_check = TimeOp(opts.cert_iters, 1, [&] {
    sink = cert.Verify(registry, static_cast<int>(n));
  });
  return r;
}

void Report(const char* scheme, const SchemeResults& r) {
  std::printf(
      "%-10s %9.0f sign/s  %9.0f verify/s  %9.0f batch-verify/s  "
      "%9.0f cert-checks/s\n",
      scheme, r.sign.per_sec, r.verify_scalar.per_sec, r.verify_batch.per_sec,
      r.cert_check.per_sec);
}

void WriteOpJson(obs::JsonWriter& w, const OpResult& r) {
  w.BeginObject();
  w.Member("ops", r.ops);
  w.Member("cpu_ms", r.cpu_ms);
  w.Member("per_sec", r.per_sec);
  w.EndObject();
}

void WriteSchemeJson(obs::JsonWriter& w, const SchemeResults& r) {
  w.BeginObject();
  w.Member("sign_per_sec", r.sign.per_sec);
  w.Member("verify_scalar_per_sec", r.verify_scalar.per_sec);
  w.Member("verify_batch_per_sec", r.verify_batch.per_sec);
  w.Member("cert_checks_per_sec", r.cert_check.per_sec);
  w.Key("sign");
  WriteOpJson(w, r.sign);
  w.Key("verify_scalar");
  WriteOpJson(w, r.verify_scalar);
  w.Key("verify_batch");
  WriteOpJson(w, r.verify_batch);
  w.Key("cert_check");
  WriteOpJson(w, r.cert_check);
  w.EndObject();
}

/// Renders the result object of the baseline document: the mandatory
/// ExperimentResult surface (check_bench_schema.py) with ed25519 batch
/// verification as the headline throughput, plus both schemes in full.
std::string ResultJson(uint64_t batch_size, const SchemeResults& ed,
                       const SchemeResults& hmac) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("mode", std::string("crypto"));
  w.Member("throughput_tps", ed.verify_batch.per_sec);
  w.Member("mean_latency_ms", 0.0);
  w.Member("p50_latency_ms", 0.0);
  w.Member("p99_latency_ms", 0.0);
  w.Member("committed_txns", ed.verify_batch.ops);
  w.Member("aborted_txns", 0.0);
  w.Member("total_wan_bytes", 0.0);
  w.Member("total_lan_bytes", 0.0);
  w.Member("wan_bytes_per_entry", 0.0);
  // The schema's duration field; here the window's thread CPU time.
  w.Member("wall_ms", ed.verify_batch.cpu_ms);
  w.Key("phases");
  w.BeginObject();
  w.EndObject();
  w.Key("timeline");
  w.BeginArray();
  w.EndArray();
  w.Member("batch_size", batch_size);
  w.Key("ed25519");
  WriteSchemeJson(w, ed);
  w.Key("hmac_sim");
  WriteSchemeJson(w, hmac);
  w.EndObject();
  return out.str();
}

int Run(const CryptoBenchOptions& opts) {
  SchemeResults ed = RunScheme(CryptoScheme::kEd25519, opts);
  Report("ed25519", ed);
  SchemeResults hmac = RunScheme(CryptoScheme::kSimulatedHmac, opts);
  Report("hmac-sim", hmac);

  double speedup = ed.verify_batch.per_sec / ed.verify_scalar.per_sec;
  std::printf("ed25519 batch speedup over scalar verify: %.2fx (batch=%llu)\n",
              speedup, static_cast<unsigned long long>(opts.batch_size));

  if (!opts.baseline_file.empty()) {
    Status s = WriteBenchBaselineFileRaw(
        opts.baseline_file, "crypto", ResultJson(opts.batch_size, ed, hmac));
    if (!s.ok()) {
      std::fprintf(stderr, "bench_crypto: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("baseline written: %s\n", opts.baseline_file.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace massbft

int main(int argc, char** argv) {
  return massbft::Run(massbft::ParseArgs(argc, argv));
}
