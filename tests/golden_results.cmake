# Golden bench outputs: runs every bench binary with
# `--smoke --dsan --jobs 4` in a scratch directory and compares the
# SHA-256 digest of each result CSV it writes against the committed
# manifest tests/golden/results.sha256. Any change in what a bench
# reports — a moved number, a new or vanished row, a new or vanished
# CSV — fails the test, so behaviour drift between commits cannot pass
# unnoticed.
#
# Skipped and masked outputs (the only ones that differ between two runs
# of one build):
#   - results/bench_perf.jsonl carries wall-clock and RSS telemetry;
#   - ext_scale_cluster.csv's wall(s), Mev/s and speedup columns are
#     wall-clock measurements; they are replaced by "-" before hashing.
#
# Invoked by ctest as:
#   cmake -DBENCH_DIR=<bench binaries> -DWORKDIR=<scratch>
#       -P golden_results.cmake
#
# Re-baseline (after a deliberate behaviour change; CHANGES.md must say
# which digests moved and why), from the repository root:
#   cmake -P tests/golden_results.cmake -- --update

cmake_minimum_required(VERSION 3.16)

get_filename_component(repo_root "${CMAKE_CURRENT_LIST_DIR}/.." ABSOLUTE)
if(NOT DEFINED BENCH_DIR)
    set(BENCH_DIR "${repo_root}/build/bench")
endif()
if(NOT DEFINED WORKDIR)
    set(WORKDIR "${repo_root}/build/golden_results")
endif()
set(golden "${CMAKE_CURRENT_LIST_DIR}/golden/results.sha256")

set(update OFF)
foreach(i RANGE ${CMAKE_ARGC})
    if("${CMAKE_ARGV${i}}" STREQUAL "--update")
        set(update ON)
    endif()
endforeach()

# Wall-clock columns per CSV, masked before hashing.
set(mask_ext_scale_cluster.csv "wall(s)" "Mev/s" "speedup")

file(GLOB benches LIST_DIRECTORIES false "${BENCH_DIR}/*")
if(NOT benches)
    message(FATAL_ERROR "no bench binaries under ${BENCH_DIR}")
endif()
file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}/results")
foreach(bench ${benches})
    get_filename_component(name "${bench}" NAME)
    execute_process(
        COMMAND "${bench}" --smoke --dsan --jobs 4
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_FILE "${WORKDIR}/${name}.out"
        ERROR_FILE "${WORKDIR}/${name}.err"
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} --smoke --dsan failed (${rc}); "
                            "see ${WORKDIR}/${name}.err")
    endif()
endforeach()

file(GLOB csvs RELATIVE "${WORKDIR}/results" "${WORKDIR}/results/*.csv")
list(SORT csvs)
set(manifest "")
foreach(csv ${csvs})
    file(READ "${WORKDIR}/results/${csv}" content)
    if(DEFINED mask_${csv})
        # Rebuild the CSV with the masked columns blanked, line by line.
        string(REPLACE "\n" ";" lines "${content}")
        list(GET lines 0 header)
        string(REPLACE "," ";" columns "${header}")
        set(masked_idx "")
        foreach(col ${mask_${csv}})
            list(FIND columns "${col}" idx)
            if(idx LESS 0)
                message(FATAL_ERROR "${csv} has no column '${col}' to mask")
            endif()
            list(APPEND masked_idx ${idx})
        endforeach()
        set(content "${header}\n")
        list(REMOVE_AT lines 0)
        foreach(line ${lines})
            string(REPLACE "," ";" cells "${line}")
            foreach(idx ${masked_idx})
                list(REMOVE_AT cells ${idx})
                list(INSERT cells ${idx} "-")
            endforeach()
            list(JOIN cells "," line)
            string(APPEND content "${line}\n")
        endforeach()
    endif()
    string(SHA256 digest "${content}")
    string(APPEND manifest "${digest}  ${csv}\n")
endforeach()

if(update)
    file(WRITE "${golden}" "${manifest}")
    message(STATUS "golden_results: re-baselined ${golden}")
    return()
endif()

file(READ "${golden}" expected)
if(NOT manifest STREQUAL expected)
    file(WRITE "${WORKDIR}/results.sha256" "${manifest}")
    string(REPLACE "\n" ";" want "${expected}")
    string(REPLACE "\n" ";" got "${manifest}")
    set(report "")
    foreach(line ${want})
        if(NOT line IN_LIST got)
            string(APPEND report "  expected ${line}\n")
        endif()
    endforeach()
    foreach(line ${got})
        if(NOT line IN_LIST want)
            string(APPEND report "  observed ${line}\n")
        endif()
    endforeach()
    message(FATAL_ERROR
        "bench outputs drifted from tests/golden/results.sha256:\n"
        "${report}"
        "Observed manifest: ${WORKDIR}/results.sha256. CSVs: "
        "${WORKDIR}/results/.")
endif()
list(LENGTH csvs count)
message(STATUS "golden_results: ${count} CSV digests match")
