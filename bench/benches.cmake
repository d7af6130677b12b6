# Bench binaries: one per reproduced table/figure plus ablations and a
# google-benchmark perf suite. Included from the top-level CMakeLists
# (not add_subdirectory) so ${CMAKE_BINARY_DIR}/bench holds only the
# executables and `for b in build/bench/*; do $b; done` just works.

set(HM_BENCHES
    table3_speedups
    table4_hgm_machine_a
    table5_hgm_machine_b
    table6_hgm_methods
    fig2_kernel
    fig3_som_machine_a
    fig4_dendro_machine_a
    fig5_som_machine_b
    fig6_dendro_machine_b
    fig7_som_methods
    fig8_dendro_methods
    ablation_mean_family
    ablation_linkage
    ablation_pca_vs_som
    ablation_redundancy
    ablation_noise
    ablation_mica_stability
    ablation_subsetting
    ablation_batch_som
    ablation_influence
    ablation_suite_merger
    ablation_gen_recovery
    reference_distribution
    consensus_clustering
    robustness_bootstrap
    perf_store_replay)

foreach(bench IN LISTS HM_BENCHES)
    add_executable(${bench} ${CMAKE_SOURCE_DIR}/bench/${bench}.cpp)
    target_link_libraries(${bench} PRIVATE hiermeans)
    target_include_directories(${bench} PRIVATE ${CMAKE_SOURCE_DIR})
    set_target_properties(${bench} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endforeach()

add_executable(perf_microbench ${CMAKE_SOURCE_DIR}/bench/perf_microbench.cpp)
target_link_libraries(perf_microbench PRIVATE hiermeans benchmark::benchmark)
target_include_directories(perf_microbench PRIVATE ${CMAKE_SOURCE_DIR})
set_target_properties(perf_microbench PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
