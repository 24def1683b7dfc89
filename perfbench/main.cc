// perfbench: one run of one workload, printing the result as one JSON line.
//
//   perfbench --workload <pr-ooc|service-rw> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir>
//
// All files the run writes (simulated machine disks, the service socket)
// live under --scratch, which must exist; the caller removes it. The exit
// code is 0 only when every output check passed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"
#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <pr-ooc|"
               "service-rw> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string scratch;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scratch") {
      scratch = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool known = perfbench::IsBatchWorkload(config.workload) ||
                     config.workload == "service-rw";
  if (!known) return Usage("unknown workload");
  if (config.seconds <= 0) return Usage("--seconds must be positive");
  if (scratch.empty() || chdir(scratch.c_str()) != 0) {
    return Usage("--scratch must name an existing directory");
  }
  tgpp::SetLogLevel(tgpp::LogLevel::kWarning);

  perfbench::Report report(config.trace);
  if (config.workload == "service-rw") {
    perfbench::RunService(config, &report);
  } else {
    perfbench::RunBatch(config, &report);
  }
  if (report.attempted() == 0) report.Fail("no operation completed");
  report.Set("error_rate", perfbench::Ratio(report.failed(),
                                            report.attempted()));
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() ? 0 : 1;
}
