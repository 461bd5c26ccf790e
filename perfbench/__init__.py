"""The repository benchmark (``python3 perfbench/run.py --help``)."""
