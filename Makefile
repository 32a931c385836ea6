# Convenience targets; the offline environment needs --no-build-isolation.

.PHONY: install test bench experiments examples lint typecheck clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

lint:
	PYTHONPATH=src python -m repro.lint src/ benchmarks/ tools/
	PYTHONPATH=src python -m repro.lint src/repro/engine/

typecheck:
	mypy

bench:
	pytest benchmarks/ --benchmark-only

experiments:
	python tools/generate_experiments.py

examples:
	@for e in examples/*.py; do echo "== $$e =="; python $$e || exit 1; done

clean:
	rm -rf .pytest_cache benchmarks/results src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
