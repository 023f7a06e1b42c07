# Report pin: run `regless_report --no-cache` and compare its stdout,
# minus the trailing blank line and the "# engine:" footer, with the
# figure text the benchmark checks (perfbench/golden/report_cold.txt).
# The golden is read in place, never copied or edited.
#
#   cmake -DREPORT=<regless_report> -DGOLDEN=<report_cold.txt>
#         -DACTUAL=<file written on mismatch> -P report_pin.cmake
execute_process(COMMAND ${REPORT} --no-cache
                OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "regless_report exited with ${rc}")
endif()
string(REGEX REPLACE "\n\n# engine: [^\n]*\n$" "\n" body "${out}")
if(body STREQUAL out)
    message(FATAL_ERROR "report has no trailing '# engine:' footer")
endif()
file(READ ${GOLDEN} golden)
if(NOT body STREQUAL golden)
    file(WRITE ${ACTUAL} "${body}")
    message(FATAL_ERROR
        "report text differs from ${GOLDEN}; see: diff ${GOLDEN} ${ACTUAL}")
endif()
