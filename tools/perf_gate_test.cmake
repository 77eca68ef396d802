# The perf gate reports every failed check, not just the first: feed
# tools/check_perf_baseline.py a bench document that fails the sampled
# floor (checked first) and a wall floor, and require exit 1 with both
# metrics named on stderr. Run by ctest (bench/CMakeLists.txt):
#
#   cmake -DPYTHON=<python3> -DTOOL=<check_perf_baseline.py> \
#         -DWORK=<scratch dir> -P tools/perf_gate_test.cmake

file(MAKE_DIRECTORY "${WORK}")
set(baseline "${WORK}/perf_gate_baseline.json")
set(results "${WORK}/perf_gate_results.json")
file(WRITE "${baseline}" [=[
{
  "schema": "ospredict-bench-baseline-v1",
  "smoke": true,
  "ratio_tol": 2.5,
  "ratios": {"emulate_over_inorder": 2.0, "emulate_over_ooo": 2.0},
  "required_metrics": [
    "accel_vs_full_wall", "emulate_block_mips", "inorder_cache_mips",
    "ooo_cache_mips", "sampled_accel_vs_full_wall",
    "sampled_detailed_fraction", "sampled_vs_full_speedup",
    "sweep_table2_threads1_wall_seconds",
    "sweep_table2_threads2_wall_seconds"
  ],
  "sampled_floor": 3.0,
  "wall_floor": 1.1
}
]=])
file(WRITE "${results}" [=[
{
  "schema": "ospredict-bench-v1",
  "smoke": true,
  "metrics": {
    "accel_vs_full_wall": {"value": 2.0},
    "emulate_block_mips": {"value": 20.0},
    "inorder_cache_mips": {"value": 10.0},
    "ooo_cache_mips": {"value": 10.0},
    "sampled_accel_vs_full_wall": {"value": 1.05},
    "sampled_detailed_fraction": {"value": 0.3},
    "sampled_vs_full_speedup": {"value": 2.9956},
    "sweep_table2_threads1_wall_seconds": {"value": 2.0},
    "sweep_table2_threads2_wall_seconds": {"value": 1.0}
  }
}
]=])

execute_process(COMMAND "${PYTHON}" "${TOOL}" "${results}" "${baseline}"
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "1")
    message(FATAL_ERROR "perf gate: exit code ${code}, want 1\n${out}${err}")
endif()
foreach(name sampled_vs_full_speedup sampled_accel_vs_full_wall)
    string(FIND "${err}" "FAIL: ${name} " at)
    if(at EQUAL -1)
        message(FATAL_ERROR "perf gate: stderr does not report ${name}\n${err}")
    endif()
endforeach()
string(FIND "${out}" "ok: accel_vs_full_wall " at)
if(at EQUAL -1)
    message(FATAL_ERROR "perf gate: stdout does not report accel_vs_full_wall\n${out}")
endif()
