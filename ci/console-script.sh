# The installed console script: every stage once through the `owcfog` entry
# point, then the exit code of each input it must refuse.  Needs `owcfog`,
# `taskset` and `cmp` on PATH and RUNNER_TEMP naming a scratch directory; run
# it as `bash -eo pipefail ci/console-script.sh`, which is how the workflow
# and tests/test_cli.py run it.
owcfog validate
# the rates alone size the mobile layer; overrides complete a config file
owcfog validate --override 'topology.mobile_rates_mbps=[100,200,300]'
printf '{"scenario":{"mode":"fixed"}}' > "$RUNNER_TEMP/fixed.json"
owcfog validate --config "$RUNNER_TEMP/fixed.json" --override 'scenario.positions_m=[[1,1]]'
owcfog place --out "$RUNNER_TEMP/place" --override tasks=1
owcfog sweep --out "$RUNNER_TEMP/sweep" --override 'drr=[0.002,0.2]' --override 'workload=[100,1000]'
owcfog channel --out "$RUNNER_TEMP/channel" --override room.grid_nx=2 --override room.grid_ny=2
# the measuring thread shares one CPU with the tracer: same bytes
taskset -c 0 owcfog channel --out "$RUNNER_TEMP/channel-1cpu" --override room.grid_nx=2 --override room.grid_ny=2
cmp "$RUNNER_TEMP/channel/channel.csv" "$RUNNER_TEMP/channel-1cpu/channel.csv"
owcfog chain --out "$RUNNER_TEMP/chain" --override scenario.name=s1-analogue
code=0; owcfog validate --override room.length_m=Infinity || code=$?; test $code -eq 1
code=0; owcfog validate --override 'topology.mobile_wavelengths=[]' || code=$?; test $code -eq 1
code=0; owcfog channel --out "$RUNNER_TEMP/uv" --override 'topology.mobile_wavelengths=["uv"]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/pos" --override 'scenario.positions_m=[[1,1]]' || code=$?; test $code -eq 1
# seed 0 draws 3 users, so 2 rates cannot replace their solved rates
code=0; owcfog chain --out "$RUNNER_TEMP/rates" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
code=0; owcfog allocate --out "$RUNNER_TEMP/rates-allocate" --seed 0 --override 'topology.mobile_rates_mbps=[100,200]' || code=$?; test $code -eq 1
# numpy cannot draw a Poisson count with a mean past about 9.2e18
code=0; owcfog validate --override scenario.intensity_per_m2=1e300 || code=$?; test $code -eq 1
code=0; owcfog place --out "$RUNNER_TEMP/huge" --override 'workload=[1e300]' 2> "$RUNNER_TEMP/huge.err" || code=$?; test $code -eq 2
test "$(wc -l < "$RUNNER_TEMP/huge.err")" -eq 1
set +e; owcfog validate --override room.grid_nx=true; test $? -eq 1
