// Conditional Graph Neural Process (the paper's primary contribution).
//
// A CGNP model is a task-common node-embedding function for clustering:
//   encoder phi   : (q, l_q, G) -> query-specific view H_q      (Section VI)
//   commutative + : {H_q}      -> task context H                (Eq. 14-16)
//   decoder rho   : (q*, H)    -> membership logits             (Eq. 17)
// Meta-training follows Algorithm 1 (support/query episode split, BCE loss
// of Eq. 19, one gradient step per task); meta-testing follows Algorithm 2
// (the whole support set conditions the context; queries are pure
// inference, no parameter adaptation).
#ifndef CGNP_CORE_CGNP_H_
#define CGNP_CORE_CGNP_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cgnp_config.h"
#include "core/cgnp_decoder.h"
#include "core/cgnp_encoder.h"
#include "core/commutative.h"
#include "data/tasks.h"
#include "meta/method.h"

namespace cgnp {

// Thread-safety contract: the const methods below (TaskContext,
// QueryLogits) are safe to call concurrently from multiple threads
// PROVIDED that (a) the model is in eval mode (SetTraining(false) -- the
// trainers leave it there), (b) every calling thread runs under a
// NoGradGuard (grad mode is thread-local, see tensor/tensor.h) so no
// thread wires shared parameter tensors into a tape, (c) `rng` is nullptr
// (dropout disabled -- inference never needs it), and (d) each thread
// passes its own Graph whose lazily-built adjacency caches are private to
// it (or pre-warmed before sharing). QueryServer in src/serve enforces
// all four.
//
// Intra-op parallelism (common/parallel.h) does not weaken this contract:
// kernel-pool workers execute raw float chunk loops only -- tape wiring and
// grad-mode queries stay on the thread that called the op -- and a kernel
// issued from inside another parallel region runs inline, so the server's
// inter-query pool composes safely with ParallelFor.
//
// Storage backing (graph/format.h) does not weaken it either: a mapped
// *parent* graph is only ever read through its CSR/feature spans on the
// query path -- BuildQueryTask materialises each per-request task subgraph
// as a fresh vector-backed Graph via BfsSubgraph, so the mutable
// lazily-built adjacency caches (clause (d)) live on those private task
// graphs, never on the shared read-only mapping. Serving straight from an
// mmap'd container (serve::OpenMappedGraph) is therefore safe at any
// thread count.
class CgnpModel : public Module {
 public:
  CgnpModel(const CgnpConfig& cfg, int64_t feature_dim, Rng* rng);

  // Context embedding H of a task given its support set (Algorithm 1
  // lines 5-7 / Algorithm 2 lines 2-4).
  Tensor TaskContext(const Graph& g, const std::vector<QueryExample>& support,
                     Rng* rng) const;

  // Membership logits for one query given the context (line 9 / line 5).
  Tensor QueryLogits(const Graph& g, const Tensor& context, NodeId q,
                     Rng* rng) const;

  const CgnpConfig& config() const { return cfg_; }
  // Input feature dimensionality the encoder was built for; checkpoints
  // store it so a loaded model rejects incompatible graphs early.
  int64_t feature_dim() const { return feature_dim_; }

 private:
  CgnpConfig cfg_;
  int64_t feature_dim_ = 0;
  CgnpEncoder encoder_;
  Commutative commutative_;
  CgnpDecoder decoder_;
};

// Per-epoch training diagnostics delivered to the optional callback.
struct CgnpEpochStats {
  int64_t epoch = 0;
  float mean_loss = 0.0f;
};

// Algorithm 1: meta-trains `model` on the training tasks. Deterministic
// given `seed` (task shuffling, dropout).
void CgnpMetaTrain(CgnpModel* model, const std::vector<CsTask>& tasks,
                   int64_t epochs, float lr, uint64_t seed,
                   const std::function<void(const CgnpEpochStats&)>& on_epoch =
                       nullptr);

// Algorithm 2: predicts membership probabilities for every query of `task`
// (inference only; no gradients, no adaptation).
std::vector<std::vector<float>> CgnpMetaTest(const CgnpModel& model,
                                             const CsTask& task);

// Mean F1 of the model over a task set (Algorithm 2 per task). Used for
// validation-based model selection.
double CgnpValidationF1(const CgnpModel& model,
                        const std::vector<CsTask>& tasks);

// Algorithm 1 with validation-based model selection: evaluates mean F1 on
// `valid_tasks` after every epoch, keeps the best parameter snapshot, and
// stops early after `patience` epochs without improvement. The model ends
// holding the best-validation parameters. Returns the best validation F1.
double CgnpMetaTrainWithValidation(CgnpModel* model,
                                   const std::vector<CsTask>& train_tasks,
                                   const std::vector<CsTask>& valid_tasks,
                                   int64_t epochs, float lr, uint64_t seed,
                                   int64_t patience = 10);

// CsMethod adapter so CGNP variants run in the shared benchmark harness.
class CgnpMethod : public CsMethod {
 public:
  explicit CgnpMethod(const CgnpConfig& cfg) : cfg_(cfg) {}

  std::string name() const override { return cfg_.VariantName(); }
  void MetaTrain(const std::vector<CsTask>& train_tasks) override;
  std::vector<std::vector<float>> PredictTask(const CsTask& task) override;

  const CgnpModel* model() const { return model_.get(); }

 private:
  CgnpConfig cfg_;
  std::unique_ptr<CgnpModel> model_;
};

}  // namespace cgnp

#endif  // CGNP_CORE_CGNP_H_
