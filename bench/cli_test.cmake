# One command-line check of `sweep`, run by ctest (bench/CMakeLists.txt):
# run SWEEP with ARGS, require exit code EXPECT, and require every word
# of NAMES to start a line of its standard output (the --help rows).
#
#   cmake -DSWEEP=<binary> "-DARGS=<args>" -DEXPECT=<code> \
#         ["-DNAMES=<words>"] -P bench/cli_test.cmake
#
# ARGS and NAMES are space-separated strings.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SWEEP}" ${args}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code STREQUAL "${EXPECT}")
    message(FATAL_ERROR
        "sweep ${ARGS}: exit code ${code}, want ${EXPECT}\n${err}")
endif()

separate_arguments(names UNIX_COMMAND "${NAMES}")
foreach(name IN LISTS names)
    string(FIND "\n${out}" "\n  ${name} " with_value)
    string(FIND "\n${out}\n" "\n  ${name}\n" alone)
    if(with_value EQUAL -1 AND alone EQUAL -1)
        message(FATAL_ERROR "sweep ${ARGS}: output does not name ${name}")
    endif()
endforeach()
