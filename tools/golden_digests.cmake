# Cross-commit trace goldens: runs two fixed-seed fleet captures under
# --trace-deterministic and compares the SHA-256 of each trace and of its
# stdout against committed digests. A refactor of the fleet, the event
# engine or the queue that claims to keep results must keep these bytes.
#
# Usage: cmake -DCLI=<numaio_cli> -DWORK=<scratch dir> -P golden_digests.cmake
#
# When a change is meant to move simulated results, regenerate the
# digests with `cmake -E sha256sum` over the same four files and say so in
# CHANGES.md.

cmake_minimum_required(VERSION 3.16)

if(NOT CLI OR NOT WORK)
  message(FATAL_ERROR "usage: cmake -DCLI=... -DWORK=... -P golden_digests.cmake")
endif()
file(MAKE_DIRECTORY "${WORK}")

set(failed 0)
# Runs one capture and compares its trace and stdout digests.
function(check_golden name args want_trace want_stdout)
  separate_arguments(args UNIX_COMMAND "${args}")
  set(trace "${WORK}/${name}.jsonl")
  set(out "${WORK}/${name}.out")
  execute_process(
    COMMAND "${CLI}" ${args} --trace-deterministic --trace-out "${trace}"
    OUTPUT_FILE "${out}"
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(SEND_ERROR "${name}: numaio_cli exited ${rc}")
    set(failed 1 PARENT_SCOPE)
    return()
  endif()
  foreach(kind trace stdout)
    if(kind STREQUAL "trace")
      set(path "${trace}")
    else()
      set(path "${out}")
    endif()
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E sha256sum "${path}"
      OUTPUT_VARIABLE line
      RESULT_VARIABLE rc)
    string(REGEX MATCH "^[0-9a-f]+" got "${line}")
    if(NOT rc EQUAL 0 OR NOT got STREQUAL want_${kind})
      message(SEND_ERROR "${name} ${kind}: sha256 ${got}, want ${want_${kind}}")
      set(failed 1 PARENT_SCOPE)
    endif()
  endforeach()
endfunction()

check_golden(fleet_seed7 "fleet --seed 7 --duration 2"
  38a8e87f698b3b00b5daaff41da1dc3b16960f9fb7fcbc09529001606bf9d4d7
  6b2562f905abef96fd4f57376b4c12367552aed8fc25cb60b4a29fad9bb58ce9)
check_golden(scale_seed9
  "fleet --scale --hosts 4 --tenants 200 --rate 4000 --seed 9 --duration 0.5"
  a57bc6e1b8b77fe776e0d28bd85b994c0e3eaca0bd322a18f85ce8ac3a02b9d4
  f99ac27c222a0d4a4260ee865dab71ada42aedb8fa534c322def2b2e1329ce7e)

if(failed)
  message(FATAL_ERROR "golden digests differ")
endif()
message(STATUS "golden digests match")
