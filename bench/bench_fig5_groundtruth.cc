// Figure 5: F1 of the learning-based approaches under different ratios of
// ground-truth samples. The paper varies |l+|/|l-| from 2%/10% to 20%/100%
// of the task-graph size on 1-shot tasks; CGNP's robustness to scarce
// ground truth versus the over-fitting of Supervised/FeatTrans/GPN is the
// result of interest.
#include <cstdio>

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace cgnp;
  using namespace cgnp::bench;
  BenchOptions opt = ParseOptions(argc, argv, "fig5_groundtruth");

  // Percent of task-graph nodes used as positive / negative samples.
  const std::pair<int, int> ratios[] = {{2, 10}, {5, 25}, {10, 50},
                                        {15, 75}, {20, 100}};

  std::printf("Figure 5: F1 vs. ground-truth ratio, 1-shot (scale=%s)\n",
              opt.paper_scale ? "paper" : "small");

  const DatasetProfile datasets[] = {CiteseerProfile(), ArxivProfile(),
                                     RedditProfile(), DblpProfile()};
  for (const auto& profile : datasets) {
    if (!DatasetSelected(opt, profile.name)) continue;
    Rng rng(opt.seed);
    const Graph g = MakeDataset(profile, &rng)[0];
    std::printf("\n--- %s ---\n", profile.name.c_str());
    std::printf("%-14s", "Method");
    for (auto [p, n] : ratios) std::printf("  %3d%%/%3d%%", p, n);
    std::printf("\n");

    // Collect per-ratio F1 per method.
    std::vector<std::string> names;
    std::vector<std::vector<double>> f1s;  // [method][ratio]
    for (size_t ri = 0; ri < std::size(ratios); ++ri) {
      BenchOptions run = opt;
      run.task.shots = 1;
      run.task.clamp_samples = true;  // 20%/100% budgets exceed pool sizes
      run.task.pos_samples =
          std::max<int64_t>(1, run.task.subgraph_size * ratios[ri].first / 100);
      run.task.neg_samples = std::max<int64_t>(
          1, run.task.subgraph_size * ratios[ri].second / 100);
      Rng task_rng(opt.seed + ri);
      const TaskSplit split = MakeSingleGraphTasks(
          g, TaskRegime::kSgsc, run.task, run.train_tasks, 0, run.test_tasks,
          &task_rng);
      if (split.train.empty() || split.test.empty()) continue;
      char ratio_case[32];
      std::snprintf(ratio_case, sizeof(ratio_case), "ratio_%d_%d",
                    ratios[ri].first, ratios[ri].second);
      size_t mi = 0;
      for (auto& nm : MakeMethodRoster(run, g.has_attributes())) {
        if (!nm.learned && nm.name != "Supervised" && nm.name != "ICS-GNN" &&
            nm.name != "AQD-GNN" && nm.name != "GPN") {
          continue;  // classical algorithms are not part of Fig. 5
        }
        const double train_ms =
            TimeMs([&] { nm.method->MetaTrain(split.train); });
        const EvalStats s = EvaluateMethod(nm.method.get(), split.test);
        if (ri == 0) {
          names.push_back(nm.name);
          f1s.emplace_back();
        }
        if (mi < f1s.size()) f1s[mi].push_back(s.f1);
        ++mi;
        BenchRow row;
        row.case_name = ratio_case;
        row.dataset = profile.name;
        row.backend = nm.name;
        row.threads = opt.kernel_threads;
        row.scale = opt.scale_name();
        row.AddMetric("train_ms", train_ms);
        row.AddMetric("f1", s.f1);
        row.AddMetric("accuracy", s.accuracy);
        opt.reporter->Add(std::move(row));
      }
    }
    for (size_t mi = 0; mi < names.size(); ++mi) {
      std::printf("%-14s", names[mi].c_str());
      for (double f1 : f1s[mi]) std::printf("  %9.4f", f1);
      std::printf("\n");
    }
    std::fflush(stdout);
  }
  return FinishReport(opt);
}
