// Workload factory: make any of the paper's Table 1 workloads by name.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace sndp {

// Names in Table 1 order: BPROP BFS BICG FWT KMN MiniFE SP STN STCL VADD.
const std::vector<std::string>& workload_names();

// Operator-library generators (src/workloads/ops): GEMM SPMV REDUCE ATTN.
const std::vector<std::string>& operator_names();

// Table-1 workloads followed by the operators — everything make_workload
// accepts.
const std::vector<std::string>& all_workload_names();

// Throws std::invalid_argument for unknown names.
std::unique_ptr<Workload> make_workload(const std::string& name, ProblemScale scale);

// For command-line front ends, before any run starts: if make_workload does
// not accept one of `names`, print "<argv0>: unknown workload 'NAME'" and
// call `usage(argv0)`, which prints the caller's usage text and exits 2.
void check_workload_names(const std::vector<std::string>& names, void (*usage)(const char*),
                          const char* argv0);

// For command-line front ends: "tiny" | "small" | "large".  Anything else
// prints "<argv0>: unknown scale 'TEXT'" and calls `usage(argv0)`, which
// prints the caller's usage text and exits 2.
ProblemScale parse_scale(const std::string& text, void (*usage)(const char*),
                         const char* argv0);

}  // namespace sndp
