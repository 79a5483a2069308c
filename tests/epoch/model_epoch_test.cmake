# Runs src/model_epoch.cmake on a scratch copy of src/ and checks what
# moves the model epoch: the same tree twice gives the same epoch, an
# edit to the harness outside the model (harness/sweep.cc) leaves it,
# and a comment appended to the model (mem/dram.cc) or an edit to the
# golden counters moves it.
#
#   cmake -DSRC=<src> -DGOLDEN=<golden.json> -DSCRATCH=<dir>
#         -P model_epoch_test.cmake

foreach(var SRC GOLDEN SCRATCH)
    if(NOT ${var})
        message(FATAL_ERROR "model_epoch_test: ${var} is not set")
    endif()
endforeach()

file(REMOVE_RECURSE "${SCRATCH}")
file(COPY "${SRC}/" DESTINATION "${SCRATCH}/src")
file(COPY "${GOLDEN}" DESTINATION "${SCRATCH}")
get_filename_component(golden_name "${GOLDEN}" NAME)
set(golden "${SCRATCH}/${golden_name}")

# Sets @out to the epoch the script writes for the scratch tree.
function(epoch out)
    execute_process(
        COMMAND "${CMAKE_COMMAND}" "-DSRC=${SCRATCH}/src"
                "-DGOLDEN=${golden}" "-DOUT=${SCRATCH}/model_epoch.h"
                -P "${SCRATCH}/src/model_epoch.cmake"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "model_epoch.cmake failed: ${rc}")
    endif()
    file(READ "${SCRATCH}/model_epoch.h" header)
    if(NOT header MATCHES "kModelEpoch\\[\\] = \"([0-9a-f]+)\"")
        message(FATAL_ERROR "no epoch in the header:\n${header}")
    endif()
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

function(expect what a op b)
    if(op STREQUAL "same" AND NOT a STREQUAL b)
        message(FATAL_ERROR "${what}: the epoch moved, ${a} -> ${b}")
    elseif(op STREQUAL "moved" AND a STREQUAL b)
        message(FATAL_ERROR "${what}: the epoch stayed ${a}")
    endif()
    message(STATUS "${what}: ${a} -> ${b} (${op})")
endfunction()

epoch(first)
epoch(again)
expect("same tree twice" "${first}" same "${again}")

file(APPEND "${SCRATCH}/src/harness/sweep.cc" "// a harness edit\n")
epoch(harness)
expect("harness/sweep.cc edited" "${first}" same "${harness}")

file(APPEND "${SCRATCH}/src/mem/dram.cc" "// a comment\n")
epoch(model)
expect("comment appended to mem/dram.cc" "${harness}" moved "${model}")

file(APPEND "${golden}" "\n")
epoch(counters)
expect("golden counters edited" "${model}" moved "${counters}")

file(REMOVE_RECURSE "${SCRATCH}")
